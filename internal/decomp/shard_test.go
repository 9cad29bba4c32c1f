package decomp

import (
	"context"
	"runtime"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

// shardTestGraphs are the two workload families the sharded path must handle:
// regular meshes (long thin boundaries) and heavy-tailed power-law graphs
// (hubs with cross-shard edges everywhere).
func shardTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	pl, err := workload.PowerLaw(3000, 3, workload.UniformWeight(0.5, 5), 11)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"grid3d":   workload.Grid3D(12, 12, 12, workload.Lognormal(1), 3),
		"grid2d":   workload.Grid2D(40, 40, nil, 1),
		"powerlaw": pl,
	}
}

func sameAssign(a, b *Decomposition) bool {
	if a.Count != b.Count || len(a.Assign) != len(b.Assign) {
		return false
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			return false
		}
	}
	return true
}

// Shards ≤ 1 must be bit-identical to the unsharded construction — not just
// equivalent up to relabeling.
func TestShardedSingleShardBitIdentical(t *testing.T) {
	for name, g := range shardTestGraphs(t) {
		base, err := FixedDegreeCtx(context.Background(), g, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 1} {
			d, stats, err := FixedDegreeShardedCtx(context.Background(), g, 4, 7, shards)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Shards != 1 {
				t.Errorf("%s shards=%d: stats.Shards = %d, want 1", name, shards, stats.Shards)
			}
			if !sameAssign(base, d) {
				t.Errorf("%s shards=%d: sharded path diverges from FixedDegree", name, shards)
			}
		}
	}
}

// Every shard count must produce a valid decomposition with the same
// per-cluster γ-violation guarantee as the unsharded construction: at most
// one violating vertex per cluster.
func TestShardedInvariance(t *testing.T) {
	const sizeCap = 4
	for name, g := range shardTestGraphs(t) {
		for _, shards := range []int{1, 2, 8} {
			d, stats, err := FixedDegreeShardedCtx(context.Background(), g, sizeCap, 7, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s shards=%d: invalid decomposition: %v", name, shards, err)
			}
			r, err := EvaluateCtx(context.Background(), d, graph.MaxExactConductance)
			if err != nil {
				t.Fatal(err)
			}
			if r.Phi <= 0 {
				t.Errorf("%s shards=%d: φ = %v", name, shards, r.Phi)
			}
			if v := MaxGammaViolations(d, r.Phi); v > 1 {
				t.Errorf("%s shards=%d: %d γ-violations in one cluster, want ≤ 1", name, shards, v)
			}
			if shards > 1 {
				if stats.Shards != shards {
					t.Errorf("%s: stats.Shards = %d, want %d", name, stats.Shards, shards)
				}
				if stats.BoundaryEdges == 0 {
					t.Errorf("%s shards=%d: no boundary edges counted", name, shards)
				}
				if stats.Merged+stats.Rejected != stats.BoundarySingletons {
					t.Errorf("%s shards=%d: merged %d + rejected %d != singletons %d",
						name, shards, stats.Merged, stats.Rejected, stats.BoundarySingletons)
				}
				for v := range d.Assign {
					if c := d.Assign[v]; c < 0 || c >= d.Count {
						t.Fatalf("%s shards=%d: vertex %d assigned %d outside [0,%d)", name, shards, v, c, d.Count)
					}
				}
			}
		}
	}
}

// The sharded result is a pure function of (g, sizeCap, seed, shards): re-runs
// agree, and so do runs under a different GOMAXPROCS — the per-shard work is
// scheduled by internal/par but the output never depends on the schedule.
func TestShardedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := workload.Grid3D(10, 10, 10, workload.Lognormal(1), 5)
	d1, s1, err := FixedDegreeShardedCtx(context.Background(), g, 4, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2, err := FixedDegreeShardedCtx(context.Background(), g, 4, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssign(d1, d2) || s1 != s2 {
		t.Fatal("sharded decomposition not deterministic across runs")
	}
	old := runtime.GOMAXPROCS(4)
	d3, s3, err := FixedDegreeShardedCtx(context.Background(), g, 4, 9, 8)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssign(d1, d3) || s1 != s3 {
		t.Fatal("sharded decomposition depends on GOMAXPROCS")
	}
}

// Oversharding degenerates gracefully: more shards than vertices falls back
// to the single-pass construction, and shard counts near n still validate.
func TestShardedDegenerateCounts(t *testing.T) {
	g := workload.Grid2D(5, 5, nil, 1)
	d, stats, err := FixedDegreeShardedCtx(context.Background(), g, 4, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 1 {
		t.Errorf("oversharded: stats.Shards = %d, want fallback to 1", stats.Shards)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d, stats, err = FixedDegreeShardedCtx(context.Background(), g, 4, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 12 {
		t.Errorf("stats.Shards = %d, want 12", stats.Shards)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A star sharded away from its hub is the worst case for boundary damage:
// every leaf outside the hub's shard has only a cross-shard edge and comes
// out of per-shard clustering as a singleton. The stitch must absorb leaves
// into the hub's cluster until the merge size cap stops it, and reject the
// rest — never lose or duplicate a vertex.
func TestShardedStitchRepairsStar(t *testing.T) {
	const sizeCap = 4
	g := workload.Caterpillar(1, 20, nil, 1) // hub 0 with 20 leaves
	d, stats, err := FixedDegreeShardedCtx(context.Background(), g, sizeCap, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.BoundarySingletons == 0 {
		t.Fatal("expected boundary singletons on a sharded star")
	}
	if stats.Merged == 0 {
		t.Error("stitch merged nothing")
	}
	mergeCap := stitchSizeFactor * sizeCap
	if mergeCap > graph.MaxExactConductance {
		mergeCap = graph.MaxExactConductance
	}
	size := make([]int, d.Count)
	for _, c := range d.Assign {
		size[c]++
	}
	for c, s := range size {
		if s == 0 {
			t.Errorf("cluster %d empty after compaction", c)
		}
		if s > mergeCap {
			t.Errorf("cluster %d has %d vertices, above the %d merge cap", c, s, mergeCap)
		}
	}
	// On a mesh the same invariants hold even when the stitch has little to
	// do: the sharded build must not leave more singletons than the stitch
	// explicitly rejected.
	gm := workload.Grid3D(12, 12, 12, workload.Lognormal(1), 3)
	base, err := FixedDegreeCtx(context.Background(), gm, sizeCap, 7)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := EvaluateCtx(context.Background(), base, graph.MaxExactConductance)
	if err != nil {
		t.Fatal(err)
	}
	dm, ms, err := FixedDegreeShardedCtx(context.Background(), gm, sizeCap, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := EvaluateCtx(context.Background(), dm, graph.MaxExactConductance)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Singletons > rb.Singletons+ms.Rejected {
		t.Errorf("singletons after stitch = %d, want ≤ base %d + rejected %d",
			rm.Singletons, rb.Singletons, ms.Rejected)
	}
}

func TestClusterShardsRejectsBadTiling(t *testing.T) {
	g := workload.Grid2D(6, 6, nil, 1)
	sh := graph.PartitionShards(g, 3)
	if _, _, err := ClusterShards(context.Background(), g, sh[:2], 4, 1); err == nil {
		t.Error("accepted shards that do not tile the vertex range")
	}
	if _, _, err := ClusterShards(context.Background(), g, sh, 1, 1); err == nil {
		t.Error("accepted sizeCap < 2")
	}
}

func TestShardedContextCancel(t *testing.T) {
	g := workload.Grid3D(10, 10, 10, workload.Lognormal(1), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := FixedDegreeShardedCtx(ctx, g, 4, 1, 4); err == nil {
		t.Error("cancelled context not observed")
	}
}
