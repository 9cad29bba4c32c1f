package laminar

import (
	"context"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

func TestBuildAndSizes(t *testing.T) {
	g := workload.Grid3D(8, 8, 8, workload.Lognormal(1), 1)
	l, err := BuildCtx(context.Background(), g, 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Depth() < 2 {
		t.Fatalf("depth = %d", l.Depth())
	}
	sizes := l.Sizes()
	if sizes[0] != g.N() {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if float64(sizes[i]) > float64(sizes[i-1])/2+1 {
			t.Errorf("level %d reduction below 2: %v", i, sizes)
		}
	}
	if sizes[len(sizes)-1] > 10 && l.Depth() > 0 {
		// Build stops at ≤ coarse unless reduction stalled.
		t.Logf("final size %d (coarse=10): reduction stalled", sizes[len(sizes)-1])
	}
	if l.TotalReduction() < 2 {
		t.Errorf("total reduction %v", l.TotalReduction())
	}
}

func TestComposedDecompositionsValid(t *testing.T) {
	g := workload.Grid2D(16, 16, workload.Lognormal(1), 2)
	l, err := BuildCtx(context.Background(), g, 4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for depth := 0; depth < l.Depth(); depth++ {
		d, err := l.ComposedAt(depth)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if d.Count != l.Levels[depth].Count {
			t.Fatalf("depth %d: count %d vs %d", depth, d.Count, l.Levels[depth].Count)
		}
	}
}

func TestRefinementProperty(t *testing.T) {
	g := workload.Grid2D(14, 14, workload.Lognormal(1), 3)
	l, err := BuildCtx(context.Background(), g, 3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for d1 := 0; d1 < l.Depth(); d1++ {
		for d2 := d1; d2 < l.Depth(); d2++ {
			ok, err := l.Refines(d1, d2)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("depth %d does not refine depth %d", d1, d2)
			}
		}
	}
	// And the converse must fail when clusters genuinely merge.
	if l.Depth() >= 2 {
		a0, _ := l.AssignAt(0)
		a1, _ := l.AssignAt(1)
		distinct0 := countDistinct(a0)
		distinct1 := countDistinct(a1)
		if distinct1 >= distinct0 {
			t.Errorf("no merging between depths: %d vs %d", distinct0, distinct1)
		}
	}
}

func countDistinct(xs []int) int {
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

func TestLevelReports(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 5)
	l, err := BuildCtx(context.Background(), g, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for depth := 0; depth < l.Depth(); depth++ {
		rep, err := l.LevelReport(depth, graph.MaxExactConductance)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Phi <= 0 {
			t.Errorf("depth %d: φ = %v", depth, rep.Phi)
		}
		if rep.Rho < 2 {
			t.Errorf("depth %d: ρ = %v", depth, rep.Rho)
		}
	}
	if _, err := l.LevelReport(99, 24); err == nil {
		t.Error("out-of-range depth accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	g := workload.Grid2D(4, 4, nil, 1)
	if _, err := BuildCtx(context.Background(), g, 4, 0, 1); err == nil {
		t.Error("coarse 0 accepted")
	}
	l, err := BuildCtx(context.Background(), g, 4, 100, 1) // already small: zero levels
	if err != nil {
		t.Fatal(err)
	}
	if l.Depth() != 0 || l.TotalReduction() != 1 {
		t.Errorf("trivial build: depth=%d reduction=%v", l.Depth(), l.TotalReduction())
	}
	if _, err := l.AssignAt(0); err == nil {
		t.Error("AssignAt on empty hierarchy accepted")
	}
}

func BenchmarkBuildLaminarGrid(b *testing.B) {
	g := workload.Grid3D(20, 20, 20, workload.Lognormal(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCtx(context.Background(), g, 4, 50, 1); err != nil {
			b.Fatal(err)
		}
	}
}
