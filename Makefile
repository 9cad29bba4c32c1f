# Convenience targets for the hcd reproduction. Everything is stdlib Go; no
# external dependencies are fetched.

GO ?= go

.PHONY: all build test bench bench-decomp bench-solve bench-json bench-scale bench-replay bench-gate replay-smoke scale-smoke vet fmt check race race-solver selfcheck chaos server-chaos fuzz experiments fig6 coverage

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the pre-merge gate: vet, the full suite under the race detector
# (the parallel solver kernels run with GOMAXPROCS > 1 in tests), a short
# fuzz pass over the input parsers, the fault-recovery chaos battery, the
# serving crash/recovery battery, the scenario-replay smoke, and the
# replay-score regression gate.
check: vet race fuzz chaos server-chaos replay-smoke bench-gate

race:
	$(GO) test -race ./...

# race-solver races just the parallel kernels and primitives (fast).
race-solver:
	$(GO) test -race ./internal/solver/... ./internal/par/... ./internal/graph/...

# fmt lists the files gofmt would change and fails when there are any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "$$out"; echo "gofmt -w the files above"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-decomp: the decomposition-pipeline benchmarks behind BENCH.md (P4) —
# parallel Evaluate and the unified DecomposeCtx path.
bench-decomp:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate|BenchmarkDecomposePipeline' -benchmem .

# bench-solve: the multi-RHS block-solve benchmark behind BENCH_solve.json —
# block-PCG at k ∈ {1, 4, 16} vs 16 sequential warm-engine solves on the same
# hierarchy, pinned to GOMAXPROCS=1 so the speedup is pure memory-hierarchy
# amortization, not parallelism.
bench-solve:
	$(GO) test -run '^$$' -bench 'BenchmarkBlockSolve' -benchmem .

selfcheck:
	$(GO) run ./cmd/hcd-selfcheck -rounds 25

# chaos: the deterministic fault-recovery battery — injected NaNs, worker
# panics, corrupted builds, forced breakdowns, malformed input.
chaos:
	$(GO) run ./cmd/hcd-selfcheck -chaos

# server-chaos: the serving-layer durability battery — servers are crashed
# (in-process and via real SIGKILL) and restarted on the same -state-dir,
# snapshots are corrupted on disk, and the snapshot-write / snapshot-read /
# build-fail / solve-delay fault points are injected; asserts
# restore-without-rebuild, quarantine, breaker degradation to CG, and
# deadline status mapping.
server-chaos:
	$(GO) run ./cmd/hcd-selfcheck -server-chaos

# fuzz: short fuzzing passes over the graph input parsers with a
# write/reparse round-trip oracle, over the stub-aware exact conductance
# certifier with the brute-force cut enumeration as a differential oracle,
# over the binary snapshot decoders with a decode/re-encode round-trip
# oracle, and over the HTTP solve-request decoder (no panic, JSON replies,
# 400 for a malformed right-hand side); go fuzzing runs one target at a time.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime=10s ./internal/gio
	$(GO) test -run '^$$' -fuzz FuzzReadMatrixMarket -fuzztime=10s ./internal/gio
	$(GO) test -run '^$$' -fuzz FuzzExactConductance -fuzztime=10s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRoundTrip -fuzztime=10s ./internal/gio
	$(GO) test -run '^$$' -fuzz FuzzSolveRequest -fuzztime=10s ./internal/serve

# bench-json: run the committed benchmark set and write the machine-readable
# records (ns/op, B/op, allocs/op, host core count) behind BENCH.md:
# the parallel Evaluate, the DecomposeCtx pipeline builds, and the warm
# zero-alloc Engine solves.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate$$' -benchmem . \
		| $(GO) run ./cmd/hcd-benchjson -tags evaluate -out BENCH_evaluate.json
	$(GO) test -run '^$$' -bench 'BenchmarkDecomposePipeline' -benchmem . \
		| $(GO) run ./cmd/hcd-benchjson -tags decompose -out BENCH_decompose.json
	$(GO) test -run '^$$' -bench 'BenchmarkEngineWarmSolves|BenchmarkBlockSolve' -benchmem . \
		| $(GO) run ./cmd/hcd-benchjson -tags solve -out BENCH_solve.json

# bench-replay: replay the committed `steady` scenario through the serving
# stack in-process and write BENCH_replay.json — a benchfmt record whose
# embedded report carries the deterministic fitness score. The score is
# bit-identical across runs and GOMAXPROCS settings (PCG-only mix, exact
# iteration-count quantiles), so hcd-benchdiff gates it with no noise margin.
bench-replay:
	$(GO) run ./cmd/hcd-replay -scenario steady -out BENCH_replay.json -gate

# replay-smoke: the seconds-scale replay gate — generate and replay the
# `smoke` scenario trace against the in-process serve stack and fail on any
# deterministic SLO miss.
replay-smoke:
	$(GO) run ./cmd/hcd-replay -scenario smoke -gate

# bench-gate: the perf-regression gate — rerun the steady replay to a temp
# record and diff its deterministic score against the committed
# BENCH_replay.json (absolute drop threshold; wall-clock metrics never gate).
bench-gate:
	$(GO) run ./cmd/hcd-replay -scenario steady -out /tmp/hcd_replay_new.json
	$(GO) run ./cmd/hcd-benchdiff -old BENCH_replay.json -new /tmp/hcd_replay_new.json

# bench-scale: the end-to-end scaling benchmark behind BENCH_scale.json —
# decompose + hierarchy-build + PCG-solve a 10⁶-vertex weighted 3D grid,
# single-pass vs 8 shards, recording wall times and per-config peak RSS
# (each configuration runs in its own child process for honest VmHWM).
bench-scale:
	$(GO) run ./cmd/hcd-scale -side 100 -shards 1,8 -out BENCH_scale.json

# scale-smoke: the CI-sized scaling gate — a ≈200k-vertex 3D grid built with
# 4 shards and solved end to end under a hard wall-clock budget.
scale-smoke:
	$(GO) run ./cmd/hcd-scale -side 59 -shards 4 -timeout 10m

experiments:
	$(GO) run ./cmd/hcd-experiments

fig6:
	$(GO) run ./cmd/hcd-fig6

coverage:
	$(GO) test -cover ./...
