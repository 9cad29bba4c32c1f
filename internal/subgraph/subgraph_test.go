package subgraph

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/solver"
	"hcd/internal/sparsify"
	"hcd/internal/treealg"
	"hcd/internal/workload"
)

func meanFree(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	s := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		s += b[i]
	}
	for i := range b {
		b[i] -= s / float64(n)
	}
	return b
}

// Apply must equal the pseudo-inverse of the subgraph Laplacian.
func TestApplyIsExactInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 10; it++ {
		n := 10 + rng.Intn(30)
		// tree + a few extra edges.
		g := treealg.RandomTree(rng, n, func() float64 { return 0.2 + rng.Float64()*3 })
		es := g.Edges()
		for i := 0; i < n/5; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: 0.2 + rng.Float64()})
			}
		}
		b := graph.MustFromEdges(n, es)
		p, st, err := New(b, n)
		if err != nil {
			t.Fatal(err)
		}
		if st.CoreSize+st.Eliminated != n {
			t.Fatalf("stats inconsistent: %+v", st)
		}
		r := meanFree(rng, n)
		x := make([]float64, n)
		p.Apply(x, r)
		ax := make([]float64, n)
		b.LapMul(ax, x)
		for i := range ax {
			if math.Abs(ax[i]-r[i]) > 1e-7 {
				t.Fatalf("it=%d: residual[%d] = %v", it, i, ax[i]-r[i])
			}
		}
		// Zero mean (pseudo-inverse property on a connected graph).
		s := 0.0
		for _, v := range x {
			s += v
		}
		if math.Abs(s) > 1e-8 {
			t.Errorf("it=%d: mean %v", it, s)
		}
	}
}

func TestApplyMatchesDensePseudoInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := treealg.RandomTree(rng, 20, func() float64 { return 0.5 + rng.Float64() })
	es := append(g.Edges(), graph.Edge{U: 0, V: 10, W: 1.3}, graph.Edge{U: 3, V: 17, W: 0.7})
	b := graph.MustFromEdges(20, es)
	p, _, err := New(b, 20)
	if err != nil {
		t.Fatal(err)
	}
	comp := make([]int, b.N())
	pin, err := dense.NewPinnedLaplacian(dense.FromRowMajor(b.N(), b.N(), b.LapDense()), comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := meanFree(rng, b.N())
	got := make([]float64, b.N())
	want := make([]float64, b.N())
	p.Apply(got, r)
	pin.Solve(want, r)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPureTreeEliminatesCompletely(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := treealg.RandomTree(rng, 50, func() float64 { return 0.1 + rng.Float64() })
	p, st, err := New(g, 0) // core limit 0: trees must fully eliminate
	if err != nil {
		t.Fatal(err)
	}
	if st.CoreSize != 0 {
		t.Fatalf("tree left a core of %d", st.CoreSize)
	}
	r := meanFree(rng, g.N())
	x := make([]float64, g.N())
	p.Apply(x, r)
	ax := make([]float64, g.N())
	g.LapMul(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-r[i]) > 1e-8 {
			t.Fatalf("residual[%d] = %v", i, ax[i]-r[i])
		}
	}
}

func TestDisconnectedForest(t *testing.T) {
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
	})
	p, _, err := New(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{1, 0, -1, 2, -1, -1, 0}
	x := make([]float64, 7)
	p.Apply(x, r)
	ax := make([]float64, 7)
	g.LapMul(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-r[i]) > 1e-8 {
			t.Fatalf("residual[%d] = %v", i, ax[i]-r[i])
		}
	}
	if x[6] != 0 {
		t.Errorf("isolated vertex got %v", x[6])
	}
}

func TestCoreLimitEnforced(t *testing.T) {
	g := workload.GridDiag2D(10, 10, nil, 1) // plenty of degree-≥3 vertices
	if _, _, err := New(g, 1); err == nil {
		t.Error("tiny core limit accepted")
	}
}

func TestSubgraphPreconditionedPCG(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := workload.Grid3D(8, 8, 8, workload.Lognormal(1), 5)
	res, err := sparsify.SparsifyCtx(context.Background(), g, sparsify.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, st, err := New(res.B, g.N())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("core %d of %d", st.CoreSize, g.N())
	b := meanFree(rng, g.N())
	pcg, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), p, b, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !pcg.Converged {
		t.Fatalf("subgraph PCG did not converge (%d iters)", pcg.Iterations)
	}
	cg, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), solver.Identity(g.N()), b, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("subgraph PCG iters=%d, plain CG iters=%d", pcg.Iterations, cg.Iterations)
	if cg.Converged && pcg.Iterations > cg.Iterations {
		t.Errorf("subgraph preconditioner slower than plain CG: %d vs %d", pcg.Iterations, cg.Iterations)
	}
}

func TestProbeCoreSizeMatchesElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 8; it++ {
		n := 20 + rng.Intn(60)
		g := treealg.RandomTree(rng, n, func() float64 { return 0.5 + rng.Float64() })
		es := g.Edges()
		for i := 0; i < n/4; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()})
			}
		}
		b := graph.MustFromEdges(n, es)
		probed := ProbeCoreSize(b)
		_, st, err := New(b, n)
		if err != nil {
			t.Fatal(err)
		}
		if probed != st.CoreSize {
			t.Fatalf("it=%d: probe %d vs elimination %d", it, probed, st.CoreSize)
		}
	}
}

func BenchmarkSubgraphApply(b *testing.B) {
	g := workload.Grid3D(20, 20, 20, workload.Lognormal(1), 1)
	res, err := sparsify.SparsifyCtx(context.Background(), g, sparsify.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := New(res.B, 4000)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r := meanFree(rng, g.N())
	x := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(x, r)
	}
}
