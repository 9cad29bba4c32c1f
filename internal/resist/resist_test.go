package resist

import (
	"context"
	"math"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

func TestSeriesLaw(t *testing.T) {
	// Path with conductances 2 and 4: R(0,2) = 1/2 + 1/4 = 0.75.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 4}})
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.BetweenCtx(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.75) > 1e-8 {
		t.Errorf("series R = %v, want 0.75", r)
	}
}

func TestParallelLaw(t *testing.T) {
	// Two parallel unit paths of length 2 between 0 and 3:
	// each path resistance 2, in parallel → 1.
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 3, W: 1},
		{U: 0, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.BetweenCtx(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-8 {
		t.Errorf("parallel R = %v, want 1", r)
	}
}

func TestTriangleResistance(t *testing.T) {
	// Unit triangle: R(u,v) = (1 · 2)/(1 + 2) = 2/3.
	g := graph.MustFromEdges(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
	})
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.BetweenCtx(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.0/3) > 1e-8 {
		t.Errorf("triangle R = %v, want 2/3", r)
	}
}

func TestSymmetryAndZero(t *testing.T) {
	g := workload.Grid2D(6, 6, workload.Lognormal(1), 3)
	c, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.BetweenCtx(context.Background(), 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.BetweenCtx(context.Background(), 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1-r2) > 1e-8 {
		t.Errorf("asymmetric: %v vs %v", r1, r2)
	}
	if z, _ := c.BetweenCtx(context.Background(), 5, 5); z != 0 {
		t.Errorf("self resistance %v", z)
	}
	if _, err := c.BetweenCtx(context.Background(), -1, 2); err == nil {
		t.Error("bad vertex accepted")
	}
}

func TestFostersTheorem(t *testing.T) {
	// Σ over edges of w(e)·R_eff(e) = n − 1 on any connected graph.
	for _, g := range []*graph.Graph{
		workload.Grid2D(5, 5, workload.Lognormal(1), 1),
		workload.GridDiag2D(4, 5, workload.UniformWeight(0.5, 3), 2),
	} {
		c, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		lev, err := c.EdgeLeveragesCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, l := range lev {
			if l <= 0 || l > 1+1e-8 {
				t.Errorf("leverage %v outside (0, 1]", l)
			}
			sum += l
		}
		if math.Abs(sum-float64(g.N()-1)) > 1e-6 {
			t.Errorf("Foster sum = %v, want %d", sum, g.N()-1)
		}
	}
}

func TestRejectsDisconnected(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := New(g); err == nil {
		t.Error("disconnected accepted")
	}
}

func BenchmarkResistanceGrid(b *testing.B) {
	g := workload.Grid2D(30, 30, workload.Lognormal(1), 1)
	c, err := New(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BetweenCtx(context.Background(), 0, g.N()-1); err != nil {
			b.Fatal(err)
		}
	}
}
