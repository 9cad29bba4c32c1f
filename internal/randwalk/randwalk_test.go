package randwalk

import (
	"context"
	"math"
	"testing"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/workload"
)

func sum(p []float64) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

func TestStepPreservesMass(t *testing.T) {
	g := workload.Grid2D(8, 8, workload.Lognormal(1), 1)
	for _, lazy := range []float64{0, 0.5, 0.9} {
		w, err := New(g, lazy)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Dirac(13)
		for s := 0; s < 20; s++ {
			w.Evolve(p, 1)
			if math.Abs(sum(p)-1) > 1e-12 {
				t.Fatalf("lazy=%v step %d: mass %v", lazy, s, sum(p))
			}
			for _, v := range p {
				if v < -1e-15 {
					t.Fatalf("negative probability %v", v)
				}
			}
		}
	}
}

func TestLazinessValidation(t *testing.T) {
	g := workload.Grid2D(3, 3, nil, 1)
	if _, err := New(g, -0.1); err == nil {
		t.Error("negative laziness accepted")
	}
	if _, err := New(g, 1); err == nil {
		t.Error("laziness 1 accepted")
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	g := workload.Grid2D(6, 6, workload.Lognormal(1), 2)
	w, _ := New(g, 0)
	pi, err := w.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	next := make([]float64, g.N())
	w.Step(next, pi)
	for i := range pi {
		if math.Abs(next[i]-pi[i]) > 1e-12 {
			t.Fatalf("π not fixed at %d: %v vs %v", i, next[i], pi[i])
		}
	}
}

func TestLazyWalkConvergesToStationary(t *testing.T) {
	g := workload.Grid2D(6, 6, nil, 1)
	w, _ := New(g, 0.5)
	pi, _ := w.Stationary()
	p := w.Dirac(0)
	w.Evolve(p, 2000)
	if tv := TotalVariation(p, pi); tv > 1e-6 {
		t.Errorf("TV distance to stationary after mixing: %v", tv)
	}
}

func TestMixtureLinearity(t *testing.T) {
	// Evolving a mixture must equal mixing the evolutions.
	g := workload.Grid2D(7, 7, workload.Lognormal(1), 3)
	w, _ := New(g, 0)
	mix, err := w.Mixture(map[int]float64{3: 1, 17: 3})
	if err != nil {
		t.Fatal(err)
	}
	w.Evolve(mix, 5)
	p1 := w.Evolve(w.Dirac(3), 5)
	p2 := w.Evolve(w.Dirac(17), 5)
	for i := range mix {
		want := 0.25*p1[i] + 0.75*p2[i]
		if math.Abs(mix[i]-want) > 1e-12 {
			t.Fatalf("mixture not linear at %d: %v vs %v", i, mix[i], want)
		}
	}
}

func TestMixtureValidation(t *testing.T) {
	g := workload.Grid2D(3, 3, nil, 1)
	w, _ := New(g, 0)
	if _, err := w.Mixture(map[int]float64{99: 1}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, err := w.Mixture(map[int]float64{1: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := w.Mixture(map[int]float64{}); err == nil {
		t.Error("empty mixture accepted")
	}
}

func TestEscapeProfileTrappingBound(t *testing.T) {
	// Mass retained in a cluster after t steps from the stationary
	// restriction: retained(t) ≥ 1 − t·ψ(C) where ψ = out/vol.
	g := workload.OCT3D(6, 6, 12, workload.DefaultOCTOptions())
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := New(g, 0)
	steps := 8
	for c := 0; c < d.Count; c += maxInt(1, d.Count/10) {
		profile, err := w.EscapeProfile(d, c, steps)
		if err != nil {
			t.Fatal(err)
		}
		psi := BoundaryRatio(d, c)
		for s, retained := range profile {
			lower := 1 - float64(s)*psi
			if retained < lower-1e-9 {
				t.Fatalf("cluster %d step %d: retained %v < bound %v (ψ=%v)",
					c, s, retained, lower, psi)
			}
		}
		if profile[0] != 1 {
			t.Fatalf("profile must start at 1")
		}
	}
}

func TestOneStepEscapeIsExactlyBoundaryRatio(t *testing.T) {
	// From the stationary restriction to C, the mass leaving in one step is
	// exactly ψ(C) = out(C)/vol(C): each v ∈ C holds vol(v)/vol(C) and
	// sends fraction w(v,u)/vol(v) across each boundary edge.
	g := workload.Grid2D(10, 10, workload.Lognormal(1.5), 9)
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := New(g, 0)
	for c := 0; c < d.Count; c++ {
		profile, err := w.EscapeProfile(d, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		psi := BoundaryRatio(d, c)
		if math.Abs(profile[1]-(1-psi)) > 1e-12 {
			t.Fatalf("cluster %d: one-step retention %v, want exactly %v",
				c, profile[1], 1-psi)
		}
	}
}

func TestClusterMassSumsToOne(t *testing.T) {
	g := workload.Grid2D(6, 6, nil, 1)
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := New(g, 0)
	p := w.Evolve(w.Dirac(7), 3)
	mass := ClusterMass(d, p)
	if math.Abs(sum(mass)-1) > 1e-12 {
		t.Errorf("cluster masses sum to %v", sum(mass))
	}
}

func TestWalkEmbeddingSeparatesPlantedBlocks(t *testing.T) {
	// Two dense blocks joined lightly: after mixing inside blocks, each
	// embedding coordinate must be nearly constant within a block —
	// within-block variance far below the overall variance.
	var es []graph.Edge
	s := 16
	for b := 0; b < 2; b++ {
		for i := 0; i < s; i++ {
			es = append(es, graph.Edge{U: b*s + i, V: b*s + (i+1)%s, W: 1})
			es = append(es, graph.Edge{U: b*s + i, V: b*s + (i+s/2)%s, W: 1})
		}
	}
	es = append(es, graph.Edge{U: 0, V: s, W: 0.01})
	g := graph.MustFromEdges(2*s, es)
	coords, err := WalkEmbedding(g, 4, 60, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range coords {
		within := blockVariance(x[:s]) + blockVariance(x[s:])
		overall := blockVariance(x)
		if overall < 1e-18 {
			continue // the probe happened to be block-symmetric
		}
		if within > 0.05*overall {
			t.Errorf("dim %d: within-block variance %v vs overall %v", j, within, overall)
		}
	}
}

func blockVariance(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return v / float64(len(xs))
}

func TestWalkEmbeddingValidation(t *testing.T) {
	g := workload.Grid2D(3, 3, nil, 1)
	if _, err := WalkEmbedding(g, 0, 5, 0.5, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := WalkEmbedding(g, 1, -1, 0.5, 1); err == nil {
		t.Error("t<0 accepted")
	}
	coords, err := WalkEmbedding(g, 2, 3, 0.5, 1)
	if err != nil || len(coords) != 2 || len(coords[0]) != 9 {
		t.Errorf("shape wrong: %v %v", len(coords), err)
	}
	// Determinism.
	again, _ := WalkEmbedding(g, 2, 3, 0.5, 1)
	for j := range coords {
		for v := range coords[j] {
			if coords[j][v] != again[j][v] {
				t.Fatal("embedding not deterministic")
			}
		}
	}
}

func TestIsolatedVertexHoldsMass(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}})
	w, _ := New(g, 0)
	p := w.Dirac(2)
	w.Evolve(p, 5)
	if p[2] != 1 {
		t.Errorf("isolated vertex lost mass: %v", p[2])
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkWalkStepGrid(b *testing.B) {
	g := workload.Grid3D(20, 20, 20, workload.Lognormal(1), 1)
	w, _ := New(g, 0.5)
	p := w.Dirac(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Evolve(p, 1)
	}
}
