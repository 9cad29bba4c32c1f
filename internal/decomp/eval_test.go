package decomp

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/treealg"
	"hcd/internal/workload"
)

// TestEvaluateParallelMatchesSerial pins the parallel fan-out of Evaluate to
// the sequential reference bit for bit on randomized instances: per-cluster
// work is independent and all float reductions stay in a fixed serial order,
// so the reports must be identical, not merely close.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	rng := rand.New(rand.NewSource(99))
	decomps := []*Decomposition{}
	for trial := 0; trial < 6; trial++ {
		tree := treealg.RandomTree(rng, 200+rng.Intn(400), func() float64 { return 0.5 + rng.Float64() })
		d, err := TreeCtx(context.Background(), tree)
		if err != nil {
			t.Fatal(err)
		}
		decomps = append(decomps, d)
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := workload.Grid3D(8, 8, 8, workload.Lognormal(1), seed)
		d, err := FixedDegreeCtx(context.Background(), g, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		decomps = append(decomps, d)
		g2 := workload.Grid2D(20, 20, workload.Lognormal(0.5), seed)
		d2, err := FixedDegreeCtx(context.Background(), g2, 3+int(seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		decomps = append(decomps, d2)
	}
	for i, d := range decomps {
		for _, limit := range []int{0, graph.MaxExactConductance} {
			serial := EvaluateSerial(d, limit)
			parallel, err := EvaluateCtx(context.Background(), d, limit)
			if err != nil {
				t.Fatal(err)
			}
			if serial != parallel {
				t.Errorf("instance %d limit %d: parallel %+v != serial %+v", i, limit, parallel, serial)
			}
		}
	}
}

// TestEvaluateCertStats pins the certification work counters on a
// hand-checkable instance: a 6-path split into two 3-clusters has one
// boundary stub and 2² − 1 non-trivial core side-assignments per cluster.
func TestEvaluateCertStats(t *testing.T) {
	g, err := graph.NewFromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &Decomposition{G: g, Assign: []int{0, 0, 0, 1, 1, 1}, Count: 2}
	rep, err := EvaluateCtx(context.Background(), d, graph.MaxExactConductance)
	if err != nil {
		t.Fatal(err)
	}
	want := CertStats{Cores: 2, Stubs: 2, Subsets: 6}
	if rep.Cert != want {
		t.Errorf("Cert = %+v, want %+v", rep.Cert, want)
	}
	if !rep.PhiExact {
		t.Error("PhiExact should hold when every core is under the limit")
	}
	// With exactLimit 0 every cluster falls back to a sweep bound.
	rep = must(EvaluateCtx(context.Background(), d, 0))
	want = CertStats{Bounds: 2}
	if rep.Cert != want {
		t.Errorf("Cert with limit 0 = %+v, want %+v", rep.Cert, want)
	}
	if rep.PhiExact {
		t.Error("PhiExact must clear when clusters exceed the limit")
	}
}

// TestBuildMetricsCertString checks the metrics line renders the cert
// counters exactly when they are nonzero.
func TestBuildMetricsCertString(t *testing.T) {
	var m BuildMetrics
	if s := m.String(); s != "total=0s" {
		t.Errorf("zero metrics string = %q", s)
	}
	m.Cert = CertStats{Cores: 3, Stubs: 7, Subsets: 21, Bounds: 1}
	want := "cert(cores=3 stubs=7 subsets=21 bounds=1) | total=0s"
	if s := m.String(); s != want {
		t.Errorf("metrics string = %q, want %q", s, want)
	}
}

// TestEvaluateParallelManyClusters forces the cluster count well past the
// parallel grain so the fan-out genuinely splits, and checks equality again.
func TestEvaluateParallelManyClusters(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	g := workload.Grid3D(12, 12, 12, workload.Lognormal(1), 5)
	d, err := FixedDegreeCtx(context.Background(), g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count <= evalGrain {
		t.Fatalf("want more than %d clusters to exercise the fan-out, got %d", evalGrain, d.Count)
	}
	serial := EvaluateSerial(d, graph.MaxExactConductance)
	parallel, err := EvaluateCtx(context.Background(), d, graph.MaxExactConductance)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("parallel %+v != serial %+v", parallel, serial)
	}
}
