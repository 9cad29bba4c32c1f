package sparsify

import (
	"context"
	"testing"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/support"
	"hcd/internal/workload"
)

func TestSparsifyStructure(t *testing.T) {
	g := workload.GridDiag2D(15, 15, workload.Lognormal(1), 1)
	for _, base := range []BaseTree{MaxWeightTree, LowStretchTree} {
		opt := DefaultOptions()
		opt.Base = base
		res, err := SparsifyCtx(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TreeEdges) != g.N()-1 {
			t.Fatalf("base %d: tree has %d edges", base, len(res.TreeEdges))
		}
		if !res.B.Connected() {
			t.Fatalf("base %d: B disconnected", base)
		}
		wantExtra := int(0.25*float64(g.N()) + 0.5)
		if len(res.ExtraEdges) != wantExtra {
			t.Errorf("base %d: kept %d extra edges, want %d", base, len(res.ExtraEdges), wantExtra)
		}
		if res.B.M() != g.N()-1+wantExtra {
			t.Errorf("base %d: B has %d edges", base, res.B.M())
		}
		// Every B edge must exist in g with identical weight.
		for _, e := range res.B.Edges() {
			w, ok := g.Weight(e.U, e.V)
			if !ok || w != e.W {
				t.Fatalf("base %d: edge (%d,%d) not in g or reweighted", base, e.U, e.V)
			}
		}
	}
}

func TestSparsifyKeepsHighestStretch(t *testing.T) {
	g := workload.GridDiag2D(10, 10, workload.Lognormal(2), 2)
	opt := DefaultOptions()
	opt.ExtraFraction = 0.1
	res, err := SparsifyCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The max dropped stretch must not exceed the minimum kept stretch: we
	// recompute stretches of the kept extra edges.
	if len(res.ExtraEdges) == 0 {
		t.Skip("no extra edges kept")
	}
	if res.MaxDroppedStretch <= 0 {
		t.Skip("nothing dropped")
	}
	// Indirect check: growing the budget reduces MaxDroppedStretch.
	opt2 := opt
	opt2.ExtraFraction = 0.5
	res2, err := SparsifyCtx(context.Background(), g, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MaxDroppedStretch > res.MaxDroppedStretch+1e-9 {
		t.Errorf("bigger budget increased dropped stretch: %v -> %v",
			res.MaxDroppedStretch, res2.MaxDroppedStretch)
	}
}

func TestSparsifyZeroBudgetIsTree(t *testing.T) {
	g := workload.Grid2D(8, 8, workload.Lognormal(1), 3)
	opt := DefaultOptions()
	opt.ExtraFraction = 0
	res, err := SparsifyCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.B.M() != g.N()-1 || !res.B.IsTree() {
		t.Errorf("zero budget should give a spanning tree, M=%d", res.B.M())
	}
}

func TestSparsifyValidation(t *testing.T) {
	disc := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := SparsifyCtx(context.Background(), disc, DefaultOptions()); err == nil {
		t.Error("disconnected accepted")
	}
	g := workload.Grid2D(3, 3, nil, 1)
	opt := DefaultOptions()
	opt.ExtraFraction = -1
	if _, err := SparsifyCtx(context.Background(), g, opt); err == nil {
		t.Error("negative fraction accepted")
	}
	tiny := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 5}})
	res, err := SparsifyCtx(context.Background(), tiny, DefaultOptions())
	if err != nil || res.B.M() != 1 {
		t.Errorf("tiny graph mishandled: %v", err)
	}
}

// The premise of Theorem 2.2: B is a subgraph with xᵀAx ≤ k·xᵀBx, i.e.
// σ(A, B) = k finite, and keeping more (higher-stretch) off-tree edges can
// only shrink k. Verified densely on a small mesh.
func TestSparsifySpectralQualityImprovesWithBudget(t *testing.T) {
	g := workload.GridDiag2D(7, 7, workload.Lognormal(1.5), 9)
	a := dense.FromRowMajor(g.N(), g.N(), g.LapDense())
	prev := 0.0
	first := true
	for _, fraction := range []float64{0, 0.1, 0.3, 0.8} {
		opt := DefaultOptions()
		opt.ExtraFraction = fraction
		res, err := SparsifyCtx(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		bd := dense.FromRowMajor(g.N(), g.N(), res.B.LapDense())
		// σ(B, A) ≤ 1: B is a subgraph.
		sBA, err := support.Sigma(bd, a)
		if err != nil {
			t.Fatal(err)
		}
		if sBA > 1+1e-8 {
			t.Fatalf("fraction %v: σ(B,A) = %v > 1", fraction, sBA)
		}
		// k = σ(A, B) must be finite and non-increasing in the budget.
		k, err := support.Sigma(a, bd)
		if err != nil {
			t.Fatal(err)
		}
		if k < 1-1e-8 {
			t.Fatalf("fraction %v: σ(A,B) = %v < 1", fraction, k)
		}
		if !first && k > prev*1.05 {
			t.Errorf("fraction %v: k grew from %v to %v", fraction, prev, k)
		}
		prev, first = k, false
	}
}

func TestGridMiniature(t *testing.T) {
	nx, ny, nz := 9, 9, 9
	g := workload.Grid3D(nx, ny, nz, workload.Lognormal(1), 4)
	res, err := GridMiniature(g, nx, ny, nz, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.B.Connected() {
		t.Fatal("miniature subgraph disconnected")
	}
	// Every edge must come from g with its original weight.
	for _, e := range res.B.Edges() {
		w, ok := g.Weight(e.U, e.V)
		if !ok || w != e.W {
			t.Fatalf("edge (%d,%d) not in g", e.U, e.V)
		}
	}
	// Per-block trees: 27 blocks × 26 tree edges each; inter edges extra.
	if len(res.TreeEdges) != 27*26 {
		t.Errorf("tree edges = %d, want %d", len(res.TreeEdges), 27*26)
	}
	// 3×3×3 block lattice has 3·(2·3·3) = 54 adjacent pairs.
	if len(res.ExtraEdges) != 54 {
		t.Errorf("inter-block edges = %d, want 54", len(res.ExtraEdges))
	}
	if res.B.M() != 27*26+54 {
		t.Errorf("B has %d edges", res.B.M())
	}
}

func TestGridMiniatureValidation(t *testing.T) {
	g := workload.Grid3D(4, 4, 4, nil, 1)
	if _, err := GridMiniature(g, 5, 4, 4, 2); err == nil {
		t.Error("wrong dims accepted")
	}
	if _, err := GridMiniature(g, 4, 4, 4, 0); err == nil {
		t.Error("blockSize 0 accepted")
	}
	// blockSize 1: every block is one vertex; B = one heaviest edge per
	// adjacent vertex pair = the whole grid.
	res, err := GridMiniature(g, 4, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.B.M() != g.M() {
		t.Errorf("blockSize 1 should keep all edges: %d vs %d", res.B.M(), g.M())
	}
}

func TestSparsifyBudgetExceedingOffTree(t *testing.T) {
	g := workload.Grid2D(5, 5, nil, 1)
	opt := DefaultOptions()
	opt.ExtraFraction = 100 // far more than available off-tree edges
	res, err := SparsifyCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.B.M() != g.M() {
		t.Errorf("full budget should keep everything: %d vs %d", res.B.M(), g.M())
	}
	if res.MaxDroppedStretch != 0 {
		t.Errorf("nothing dropped but MaxDroppedStretch = %v", res.MaxDroppedStretch)
	}
}
