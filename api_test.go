package hcd_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd"
)

func TestSolveChebyshev(t *testing.T) {
	g := hcd.Grid2D(12, 12, hcd.LognormalWeights(1), 1)
	rng := rand.New(rand.NewSource(1))
	b := meanFree(rng, g.N())
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 1})
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hcd.SolveChebyshevCtx(context.Background(), g, b, p, hcd.DefaultChebyshevOptions(80))
	if err != nil {
		t.Fatal(err)
	}
	x, hist := res.X, res.Residuals
	if hist[len(hist)-1] > hist[0]*1e-5 {
		t.Errorf("Chebyshev residual %v of initial %v", hist[len(hist)-1], hist[0])
	}
	if r := residual(g, x, b); r > 1e-4 {
		t.Errorf("residual inf-norm %v", r)
	}
}

func TestCutFractionReported(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 1})
	rep := hcd.Evaluate(d)
	if rep.CutFraction <= 0 || rep.CutFraction >= 1 {
		t.Errorf("CutFraction = %v", rep.CutFraction)
	}
	// One single cluster → no cut.
	single := &hcd.Decomposition{G: g, Assign: make([]int, g.N()), Count: 1}
	if cf := hcd.Evaluate(single).CutFraction; cf != 0 {
		t.Errorf("single-cluster CutFraction = %v", cf)
	}
}

func TestDecomposeSpectralFacade(t *testing.T) {
	g := hcd.Grid2D(10, 10, hcd.LognormalWeights(1), 2)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodSpectral)
	opt.SkipReport = true
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	d, st := res.D, res.SpectralStats
	if err := hcd.Validate(d); err != nil {
		t.Fatal(err)
	}
	if st.Splits == 0 {
		t.Error("no splits recorded")
	}
	// The paper's contrast: bottom-up clustering guarantees ρ ≥ 2 with no
	// eigensolves; top-down used st.EigenCalls of them.
	if st.EigenCalls == 0 {
		t.Error("no eigensolves recorded")
	}
}

func TestBuildLaminarFacade(t *testing.T) {
	g := hcd.Grid2D(14, 14, hcd.LognormalWeights(1), 3)
	l, err := hcd.BuildLaminarCtx(context.Background(), g, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Depth() < 2 {
		t.Fatalf("depth %d", l.Depth())
	}
	ok, err := l.Refines(0, l.Depth()-1)
	if err != nil || !ok {
		t.Errorf("refinement failed: %v %v", ok, err)
	}
	d, err := l.ComposedAt(l.Depth() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := hcd.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWalkFacade(t *testing.T) {
	g := hcd.Grid2D(8, 8, hcd.LognormalWeights(1), 4)
	w, err := hcd.NewRandomWalk(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Dirac(5)
	w.Evolve(p, 10)
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 1})
	mass := hcd.ClusterMass(d, p)
	tot := 0.0
	for _, m := range mass {
		tot += m
	}
	if math.Abs(tot-1) > 1e-12 {
		t.Errorf("cluster mass sums to %v", tot)
	}
	if psi := hcd.BoundaryRatio(d, 0); psi <= 0 || psi >= 1 {
		t.Errorf("ψ = %v", psi)
	}
	pi, err := w.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if tv := hcd.TotalVariation(p, pi); tv < 0 || tv > 1 {
		t.Errorf("TV = %v", tv)
	}
}

func TestIORoundTripFacade(t *testing.T) {
	g := hcd.PlanarMesh(6, 6, hcd.LognormalWeights(1), 5)
	var buf bytes.Buffer
	if err := hcd.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := hcd.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("edge-list round trip mismatch")
	}
	buf.Reset()
	if err := hcd.WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err = hcd.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("MatrixMarket round trip mismatch")
	}
}

func TestMatchedReductionSubgraph(t *testing.T) {
	g := hcd.OCT3D(10, 10, 10, hcd.DefaultOCTOptions())
	target := 4.0
	sub, err := hcd.NewSubgraphPreconditionerMatched(g, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(g.N()) / float64(sub.CoreSize)
	if got < target/2 || got > target*2 {
		t.Errorf("matched reduction %v, target %v (core %d of %d)", got, target, sub.CoreSize, g.N())
	}
	if _, err := hcd.NewSubgraphPreconditionerMatched(g, 1, 1); err == nil {
		t.Error("target reduction 1 accepted")
	}
}

func TestTreePreconditioner(t *testing.T) {
	g := hcd.Grid2D(14, 14, hcd.LognormalWeights(1), 3)
	rng := rand.New(rand.NewSource(7))
	b := meanFree(rng, g.N())
	for _, base := range []hcd.BaseTree{hcd.MaxWeightTree, hcd.LowStretchTree} {
		p, err := hcd.NewTreePreconditioner(g, base, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hcd.SolvePCGCtx(context.Background(), g, b, p, hcd.DefaultSolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("base %d: tree-PCG did not converge (%d iters)", base, res.Iterations)
		}
		if r := residual(g, res.X, b); r > 1e-5 {
			t.Errorf("base %d: residual %v", base, r)
		}
	}
	if _, err := hcd.NewTreePreconditioner(g, hcd.BaseTree(99), 1); err == nil {
		t.Error("unknown base accepted")
	}
}

// Preconditioner strength ordering on a hard instance: tree < subgraph <
// Steiner hierarchy in iteration counts, the paper's Figure 6 narrative
// extended one baseline down.
func TestPreconditionerLadder(t *testing.T) {
	g := hcd.OCT3D(8, 8, 16, hcd.DefaultOCTOptions())
	rng := rand.New(rand.NewSource(9))
	b := meanFree(rng, g.N())
	tp, err := hcd.NewTreePreconditioner(g, hcd.MaxWeightTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := hcd.NewSubgraphPreconditioner(g, hcd.DefaultPlanarOptions(), g.N())
	if err != nil {
		t.Fatal(err)
	}
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions())
	if err != nil {
		t.Fatal(err)
	}
	it := func(p hcd.Preconditioner) int {
		res, err := hcd.SolvePCGCtx(context.Background(), g, b, p, hcd.DefaultSolveOptions())
		if err != nil || !res.Converged {
			return 1 << 30
		}
		return res.Iterations
	}
	tree, subg, hier := it(tp), it(sub.P), it(h)
	t.Logf("iterations: tree=%d subgraph=%d hierarchy=%d", tree, subg, hier)
	if !(hier <= subg && subg <= tree) {
		t.Errorf("expected hierarchy ≤ subgraph ≤ tree, got %d %d %d", hier, subg, tree)
	}
}

func TestGridSubgraphPreconditioner(t *testing.T) {
	side := 9
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), 2)
	sub, err := hcd.NewGridSubgraphPreconditioner(g, side, side, side, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Miniaturization leaves roughly the block-interface vertices.
	if sub.CoreSize <= 0 || sub.CoreSize >= g.N()/2 {
		t.Errorf("core size %d of %d", sub.CoreSize, g.N())
	}
	rng := rand.New(rand.NewSource(5))
	b := meanFree(rng, g.N())
	res, err := hcd.SolvePCGCtx(context.Background(), g, b, sub.P, hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("miniaturized subgraph PCG did not converge (%d iters)", res.Iterations)
	}
	if _, err := hcd.NewGridSubgraphPreconditioner(g, side+1, side, side, 3); err == nil {
		t.Error("wrong dims accepted")
	}
}

func TestResistanceComputerFacade(t *testing.T) {
	// Unit square: R across one side = (1·3)/(1+3) = 3/4.
	g, err := hcd.NewGraph(4, []hcd.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 3, V: 0, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := hcd.NewResistanceComputer(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.BetweenCtx(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.75) > 1e-8 {
		t.Errorf("R = %v, want 0.75", r)
	}
}

func TestAgreementFacade(t *testing.T) {
	rep, err := hcd.Agreement([]int{0, 0, 1}, []int{7, 7, 9})
	if err != nil || rep.Purity != 1 || rep.RandIndex != 1 {
		t.Errorf("agreement: %+v %v", rep, err)
	}
}

// End-to-end: decompose a graph loaded from a serialized form, solve on it.
func TestLoadDecomposeSolvePipeline(t *testing.T) {
	orig := hcd.OCT3D(6, 6, 6, hcd.DefaultOCTOptions())
	var buf bytes.Buffer
	if err := hcd.WriteMatrixMarket(&buf, orig); err != nil {
		t.Fatal(err)
	}
	g, err := hcd.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b := meanFree(rng, g.N())
	res, err := hcd.SolveCtx(context.Background(), g, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("solve on round-tripped graph did not converge")
	}
}
