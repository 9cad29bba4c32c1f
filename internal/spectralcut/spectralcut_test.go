package spectralcut

import (
	"context"
	"testing"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/workload"
)

func TestDecomposeGrid(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 1)
	d, st, err := DecomposeCtx(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Count < 2 {
		t.Errorf("no splitting happened (count=%d)", d.Count)
	}
	if st.Splits == 0 || st.EigenCalls < st.Splits {
		t.Errorf("stats inconsistent: %+v", st)
	}
	// Every final cluster of certifiable size must meet the target
	// conductance of its induced subgraph or be at MinSize.
	opt := DefaultOptions()
	for _, set := range d.Clusters() {
		if len(set) <= opt.MinSize {
			continue
		}
		sub, _, err := g.InducedSubgraph(set)
		if err != nil {
			t.Fatal(err)
		}
		if sub.N() <= graph.MaxExactConductance && sub.Connected() {
			phi, perr := sub.ExactConductance()
			if perr != nil {
				t.Fatal(perr)
			}
			if phi < opt.TargetPhi {
				t.Fatalf("cluster of %d vertices has conductance %v < target", len(set), phi)
			}
		}
	}
}

func TestDecomposePlantedBlocks(t *testing.T) {
	// Two dense blocks joined by one light edge: the first split must
	// separate them.
	var es []graph.Edge
	s := 10
	for b := 0; b < 2; b++ {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				es = append(es, graph.Edge{U: b*s + i, V: b*s + j, W: 1})
			}
		}
	}
	es = append(es, graph.Edge{U: 0, V: s, W: 0.01})
	g := graph.MustFromEdges(2*s, es)
	opt := DefaultOptions()
	opt.TargetPhi = 0.2
	d, _, err := DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 2 {
		t.Fatalf("count = %d, want 2", d.Count)
	}
	for v := 1; v < s; v++ {
		if d.Assign[v] != d.Assign[0] || d.Assign[s+v] != d.Assign[s] {
			t.Fatal("blocks were split incorrectly")
		}
	}
	if d.Assign[0] == d.Assign[s] {
		t.Fatal("blocks were not separated")
	}
}

func TestDecomposeRespectsComponents(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1},
	})
	d, _, err := DecomposeCtx(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Assign[0] == d.Assign[3] {
		t.Error("clusters span components")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeValidation(t *testing.T) {
	g := workload.Grid2D(3, 3, nil, 1)
	opt := DefaultOptions()
	opt.TargetPhi = 0
	if _, _, err := DecomposeCtx(context.Background(), g, opt); err == nil {
		t.Error("TargetPhi 0 accepted")
	}
	empty := graph.MustFromEdges(0, nil)
	if d, _, err := DecomposeCtx(context.Background(), empty, DefaultOptions()); err != nil || d.Count != 0 {
		t.Error("empty graph mishandled")
	}
}

func TestMaxClustersCap(t *testing.T) {
	g := workload.Grid2D(16, 16, workload.Lognormal(1), 2)
	opt := DefaultOptions()
	opt.TargetPhi = 10 // unattainable: would split forever without the cap
	opt.MaxClusters = 10
	d, _, err := DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count > opt.MaxClusters+2 {
		t.Errorf("count %d exceeds cap", d.Count)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The paper's motivating comparison: the top-down recursion needs an
// eigensolve per split while the bottom-up §3.1 clustering needs none and
// achieves a guaranteed reduction factor.
func TestTopDownVsBottomUpProfile(t *testing.T) {
	g := workload.Grid2D(14, 14, workload.Lognormal(1), 3)
	dTop, st, err := DecomposeCtx(context.Background(), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dBot, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rTop, err := decomp.EvaluateCtx(context.Background(), dTop, graph.MaxExactConductance)
	if err != nil {
		t.Fatal(err)
	}
	rBot, err := decomp.EvaluateCtx(context.Background(), dBot, graph.MaxExactConductance)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("top-down: %d clusters (ρ=%.2f) with %d eigensolves; bottom-up: %d clusters (ρ=%.2f), zero eigensolves",
		dTop.Count, rTop.Rho, st.EigenCalls, dBot.Count, rBot.Rho)
	if rBot.Rho < 2 {
		t.Errorf("bottom-up lost its reduction guarantee: %v", rBot.Rho)
	}
}

func BenchmarkSpectralCutGrid(b *testing.B) {
	g := workload.Grid2D(20, 20, workload.Lognormal(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecomposeCtx(context.Background(), g, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
