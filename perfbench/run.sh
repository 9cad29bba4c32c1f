#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload solve-k1 --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) stays under the build directory inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
