package hierarchy

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/solver"
	"hcd/internal/workload"
)

func hcdEdge(u, v int, w float64) graph.Edge { return graph.Edge{U: u, V: v, W: w} }

func mustGraph(n int, es []graph.Edge) *graph.Graph { return graph.MustFromEdges(n, es) }

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

func TestHierarchyBuilds(t *testing.T) {
	g := workload.Grid3D(10, 10, 10, workload.Lognormal(1), 1)
	h, err := NewCtx(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.Dim() != g.N() {
		t.Fatalf("Dim = %d", h.Dim())
	}
	sizes := h.LevelSizes()
	if sizes[0] != g.N() {
		t.Fatalf("level sizes %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Fatalf("no reduction between levels: %v", sizes)
		}
		if float64(sizes[i]) > float64(sizes[i-1])/1.8 {
			t.Errorf("reduction below ~2 between levels %d and %d: %v", i-1, i, sizes)
		}
	}
	if h.CoarseSize() > DefaultOptions().DirectLimit {
		t.Errorf("coarse size %d above direct limit", h.CoarseSize())
	}
}

func TestHierarchyApplyIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := workload.Grid2D(15, 15, workload.Lognormal(1), 2)
	for _, smooth := range []int{0, 1, 2} {
		opt := DefaultOptions()
		opt.Smooth = smooth
		opt.DirectLimit = 20
		h, err := NewCtx(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		x := meanFree(rng, g.N())
		y := meanFree(rng, g.N())
		hx := make([]float64, g.N())
		hy := make([]float64, g.N())
		h.Apply(hx, x)
		h.Apply(hy, y)
		xy := dot(y, hx)
		yx := dot(x, hy)
		if math.Abs(xy-yx) > 1e-8*math.Max(1, math.Abs(xy)) {
			t.Errorf("smooth=%d: apply not symmetric: %v vs %v", smooth, xy, yx)
		}
		// PSD along the probes.
		if dot(x, hx) < -1e-9 {
			t.Errorf("smooth=%d: negative quadratic form", smooth)
		}
	}
}

func TestHierarchyPCGConvergesOCT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := workload.OCT3D(10, 10, 20, workload.DefaultOCTOptions())
	for _, smooth := range []int{0, 1} {
		opt := DefaultOptions()
		opt.Smooth = smooth
		opt.DirectLimit = 100
		h, err := NewCtx(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		b := meanFree(rng, g.N())
		res, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("smooth=%d: multilevel PCG did not converge in %d iters", smooth, res.Iterations)
		}
		t.Logf("smooth=%d: depth=%d iters=%d", smooth, h.Depth(), res.Iterations)
	}
}

func TestHierarchyIterationsNearlyFlat(t *testing.T) {
	// Multilevel behaviour: iteration counts grow at most mildly with n.
	rng := rand.New(rand.NewSource(3))
	var iters []int
	for _, side := range []int{8, 12, 16} {
		g := workload.OCT3D(side, side, side, workload.OCTOptions{Layers: 3, Contrast: 50, NoiseSigma: 1, Seed: 5})
		opt := DefaultOptions()
		opt.DirectLimit = 200
		h, err := NewCtx(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		b := meanFree(rng, g.N())
		res, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("side=%d did not converge", side)
		}
		iters = append(iters, res.Iterations)
	}
	t.Logf("iterations across sizes: %v", iters)
	if iters[2] > 4*iters[0]+10 {
		t.Errorf("iteration growth too steep: %v", iters)
	}
}

func TestHierarchySmallGraphDirect(t *testing.T) {
	g := workload.Grid2D(5, 5, nil, 1)
	opt := DefaultOptions()
	opt.DirectLimit = 100 // graph smaller than limit: zero levels
	h, err := NewCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 0 {
		t.Errorf("depth = %d, want 0", h.Depth())
	}
	rng := rand.New(rand.NewSource(4))
	b := meanFree(rng, g.N())
	x := make([]float64, g.N())
	h.Apply(x, b)
	ax := make([]float64, g.N())
	g.LapMul(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-8 {
			t.Fatalf("direct solve residual[%d] = %v", i, ax[i]-b[i])
		}
	}
}

func TestHierarchyDisconnectedGraph(t *testing.T) {
	// Two separate grids in one graph: the hierarchy must build (per-
	// component pinning at the coarse level) and PCG must converge for a
	// right-hand side that is mean-free per component.
	a := workload.Grid2D(8, 8, workload.Lognormal(1), 1)
	edges := a.Edges()
	off := a.N()
	for _, e := range a.Edges() {
		edges = append(edges, hcdEdge(e.U+off, e.V+off, e.W))
	}
	g := mustGraph(2*a.N(), edges)
	opt := DefaultOptions()
	opt.DirectLimit = 30
	h, err := NewCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, g.N())
	for comp := 0; comp < 2; comp++ {
		s := 0.0
		for v := 0; v < a.N(); v++ {
			b[comp*a.N()+v] = rng.NormFloat64()
			s += b[comp*a.N()+v]
		}
		for v := 0; v < a.N(); v++ {
			b[comp*a.N()+v] -= s / float64(a.N())
		}
	}
	res, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("disconnected solve did not converge (%d iters)", res.Iterations)
	}
	ax := make([]float64, g.N())
	g.LapMul(ax, res.X)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-6 {
			t.Fatalf("residual[%d] = %v", i, ax[i]-b[i])
		}
	}
}

func TestHierarchyOptionsValidation(t *testing.T) {
	g := workload.Grid2D(4, 4, nil, 1)
	opt := DefaultOptions()
	opt.SizeCap = 1
	if _, err := NewCtx(context.Background(), g, opt); err == nil {
		t.Error("SizeCap 1 accepted")
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func BenchmarkHierarchyApply(b *testing.B) {
	g := workload.Grid3D(20, 20, 20, workload.Lognormal(1), 1)
	h, err := NewCtx(context.Background(), g, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r := meanFree(rng, g.N())
	x := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Apply(x, r)
	}
}

func BenchmarkHierarchyPCGSolve(b *testing.B) {
	g := workload.OCT3D(16, 16, 16, workload.DefaultOCTOptions())
	h, err := NewCtx(context.Background(), g, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rhs := meanFree(rng, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, rhs, solver.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
