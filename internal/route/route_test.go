package route

import (
	"context"
	"math/rand"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/laminar"
	"hcd/internal/workload"
)

func buildRouter(t *testing.T, g *graph.Graph) *Router {
	t.Helper()
	lam, err := laminar.BuildCtx(context.Background(), g, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(g, lam)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoutePathsAreValid(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 1)
	r := buildRouter(t, g)
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 200; it++ {
		s, u := rng.Intn(g.N()), rng.Intn(g.N())
		path, err := r.Route(s, u)
		if err != nil {
			t.Fatalf("route(%d,%d): %v", s, u, err)
		}
		if err := Validate(g, path, s, u); err != nil {
			t.Fatalf("route(%d,%d): %v (path %v)", s, u, err, path)
		}
	}
}

func TestRouteIsOblivious(t *testing.T) {
	// Same endpoints → identical path, independent of other traffic.
	g := workload.Grid2D(10, 10, workload.Lognormal(1), 3)
	r := buildRouter(t, g)
	p1, err := r.Route(3, 87)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Route(3, 87)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatal("oblivious route changed between calls")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("oblivious route changed between calls")
		}
	}
}

func TestRouteTrivialAndErrors(t *testing.T) {
	g := workload.Grid2D(6, 6, nil, 1)
	r := buildRouter(t, g)
	p, err := r.Route(5, 5)
	if err != nil || len(p) != 1 {
		t.Errorf("self route = %v, %v", p, err)
	}
	if _, err := r.Route(-1, 3); err == nil {
		t.Error("negative endpoint accepted")
	}
	// Disconnected graph: endpoints in different components never share a
	// cluster.
	dg := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1},
	})
	lam, err := laminar.BuildCtx(context.Background(), dg, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lam.Depth() == 0 {
		t.Skip("no hierarchy levels on tiny graph")
	}
	rr, err := New(dg, lam)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Route(0, 5); err == nil {
		t.Error("cross-component route accepted")
	}
}

func TestCongestionComparison(t *testing.T) {
	// Route a random permutation demand set both ways and compare maximum
	// congestion: the oblivious scheme should stay within a moderate factor
	// of shortest-path routing on a mesh (and is adversarially robust,
	// which shortest-path is not).
	g := workload.Grid2D(14, 14, workload.Lognormal(1), 5)
	r := buildRouter(t, g)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(g.N())
	var hier, direct [][]int
	for v := 0; v < g.N(); v += 2 {
		s, u := perm[v], perm[(v+1)%g.N()]
		hp, err := r.Route(s, u)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := ShortestPath(g, s, u)
		if err != nil {
			t.Fatal(err)
		}
		hier = append(hier, hp)
		direct = append(direct, dp)
	}
	hMax, hMean, err := Congestion(g, hier)
	if err != nil {
		t.Fatal(err)
	}
	dMax, dMean, err := Congestion(g, direct)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("congestion max: oblivious %.2f vs shortest-path %.2f; mean: %.2f vs %.2f",
		hMax, dMax, hMean, dMean)
	if hMax > 100*dMax {
		t.Errorf("oblivious congestion %v wildly above shortest-path %v", hMax, dMax)
	}
}

func TestStretchFinite(t *testing.T) {
	g := workload.Grid2D(10, 10, workload.Lognormal(1), 9)
	r := buildRouter(t, g)
	rng := rand.New(rand.NewSource(11))
	worst := 0.0
	for it := 0; it < 100; it++ {
		s, u := rng.Intn(g.N()), rng.Intn(g.N())
		if s == u {
			continue
		}
		p, err := r.Route(s, u)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Stretch(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if st > worst {
			worst = st
		}
	}
	t.Logf("worst hop stretch over 100 demands: %.2f", worst)
	if worst > 50 {
		t.Errorf("stretch %v unreasonable", worst)
	}
}

func TestShortestPathBaseline(t *testing.T) {
	g := workload.Grid2D(5, 5, nil, 1)
	p, err := ShortestPath(g, 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 9 { // manhattan distance 8 → 9 vertices
		t.Errorf("path length %d, want 9", len(p))
	}
	if err := Validate(g, p, 0, 24); err != nil {
		t.Error(err)
	}
	dg := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := ShortestPath(dg, 0, 3); err == nil {
		t.Error("unreachable target accepted")
	}
}

func TestSimplifyRemovesBacktracks(t *testing.T) {
	in := []int{1, 2, 3, 2, 4, 4, 5}
	out := simplify(in)
	want := []int{1, 2, 4, 5}
	if len(out) != len(want) {
		t.Fatalf("simplify = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("simplify = %v, want %v", out, want)
		}
	}
}

func BenchmarkRoute(b *testing.B) {
	g := workload.Grid2D(30, 30, workload.Lognormal(1), 1)
	lam, err := laminar.BuildCtx(context.Background(), g, 4, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := New(g, lam)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, u := rng.Intn(g.N()), rng.Intn(g.N())
		if _, err := r.Route(s, u); err != nil {
			b.Fatal(err)
		}
	}
}
