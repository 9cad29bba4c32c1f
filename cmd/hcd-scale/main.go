// Command hcd-scale benchmarks the shard-parallel build path at scale: it
// generates a weighted 3D grid, builds a multilevel hierarchy with a given
// shard count, solves one PCG system against it, and reports wall times plus
// peak RSS as JSON.
//
// Each shard configuration runs in its own child process (the command
// re-executes itself with -child) so the kernel's peak-RSS high-water mark
// (VmHWM) is attributable to that configuration alone rather than to
// whichever config ran first. The parent assembles the per-config records
// into one document suitable for committing as BENCH_scale.json.
//
// Usage:
//
//	hcd-scale -side 100 -shards 1,8 -out BENCH_scale.json
//	hcd-scale -side 59 -shards 4 -timeout 10m     # the CI scale-smoke config
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/obs"
)

// record is one shard configuration's measurements.
type record struct {
	Shards       int     `json:"shards"`
	BuildMS      float64 `json:"build_ms"`
	SolveMS      float64 `json:"solve_ms"`
	Iterations   int     `json:"iterations"`
	Converged    bool    `json:"converged"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	Clusters     int     `json:"clusters"`
	Boundary     int     `json:"boundary_edges"`
	Merged       int     `json:"merged"`
}

// document is the whole benchmark output.
type document struct {
	Side     int      `json:"side"`
	Vertices int      `json:"vertices"`
	Edges    int      `json:"edges"`
	Procs    int      `json:"procs"` // GOMAXPROCS of the run — shard speedups need > 1
	Date     string   `json:"date"`
	Records  []record `json:"records"`
}

func main() {
	side := flag.Int("side", 100, "grid side length (side³ vertices)")
	shardList := flag.String("shards", "1,8", "comma-separated shard counts to benchmark")
	out := flag.String("out", "", "write the JSON document here (default stdout)")
	timeout := flag.Duration("timeout", 30*time.Minute, "wall-clock budget per configuration")
	child := flag.Int("child", -1, "internal: run one configuration with this shard count and print its record")
	flag.Parse()

	if *child >= 0 {
		if err := runChild(*side, *child); err != nil {
			log.Fatal(err)
		}
		return
	}

	doc := document{
		Side:  *side,
		Procs: runtime.GOMAXPROCS(0),
		Date:  time.Now().UTC().Format("2006-01-02"),
	}
	doc.Vertices = (*side) * (*side) * (*side)
	doc.Edges = 3 * (*side) * (*side) * ((*side) - 1)

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range strings.Split(*shardList, ",") {
		shards, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || shards < 1 {
			log.Fatalf("bad shard count %q", f)
		}
		fmt.Fprintf(os.Stderr, "hcd-scale: side=%d shards=%d ...\n", *side, shards)
		start := time.Now()
		cmd := exec.Command(exe, "-side", strconv.Itoa(*side), "-child", strconv.Itoa(shards))
		cmd.Stderr = os.Stderr
		outBytes, err := runWithTimeout(cmd, *timeout)
		if err != nil {
			log.Fatalf("shards=%d: %v", shards, err)
		}
		var rec record
		if err := json.Unmarshal(outBytes, &rec); err != nil {
			log.Fatalf("shards=%d: bad child output: %v", shards, err)
		}
		fmt.Fprintf(os.Stderr, "hcd-scale: shards=%d build %.0fms solve %.0fms rss %dMB (total %v)\n",
			shards, rec.BuildMS, rec.SolveMS, rec.PeakRSSBytes>>20, time.Since(start).Round(time.Second))
		doc.Records = append(doc.Records, rec)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
}

// runWithTimeout runs cmd with a hard wall-clock budget, returning stdout.
func runWithTimeout(cmd *exec.Cmd, budget time.Duration) ([]byte, error) {
	var sb strings.Builder
	cmd.Stdout = &sb
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return []byte(sb.String()), err
	case <-time.After(budget):
		_ = cmd.Process.Kill()
		<-done
		return nil, fmt.Errorf("configuration exceeded the %v budget", budget)
	}
}

// runChild builds and solves one configuration in this process and prints
// its record as JSON on stdout. Peak RSS is read from VmHWM after the solve,
// so it covers generation + build + solve of exactly this configuration.
func runChild(side, shards int) error {
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), 1)

	hopt := hcd.DefaultHierarchyOptions()
	hopt.Shards = shards
	buildStart := time.Now()
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hopt)
	if err != nil {
		return err
	}
	buildMS := float64(time.Since(buildStart).Microseconds()) / 1e3

	// One sharded decomposition on the side for the boundary statistics —
	// cheap next to the hierarchy build, and it reports what the stitch did.
	dres, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{
		Method: hcd.MethodFixedDegree, SizeCap: hopt.SizeCap, Seed: hopt.Seed,
		Shards: shards, SkipReport: true,
	})
	if err != nil {
		return err
	}

	b := cli.MeanFreeRHS(g.N(), 7)
	solveStart := time.Now()
	res, err := hcd.SolvePCGCtx(context.Background(), g, b, h, hcd.DefaultSolveOptions())
	if err != nil {
		return err
	}
	solveMS := float64(time.Since(solveStart).Microseconds()) / 1e3

	rec := record{
		Shards:       shards,
		BuildMS:      buildMS,
		SolveMS:      solveMS,
		Iterations:   res.Iterations,
		Converged:    res.Converged,
		PeakRSSBytes: obs.PeakRSS(),
		Clusters:     dres.D.Count,
		Boundary:     dres.ShardStats.BoundaryEdges,
		Merged:       dres.ShardStats.Merged,
	}
	enc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = os.Stdout.Write(enc)
	return err
}
