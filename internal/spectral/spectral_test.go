package spectral

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/steiner"
	"hcd/internal/support"
	"hcd/internal/treealg"
	"hcd/internal/workload"
)

func cycleGraph(n int) *graph.Graph {
	es := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		es = append(es, graph.Edge{U: i, V: (i + 1) % n, W: 1})
	}
	return graph.MustFromEdges(n, es)
}

func TestSmallestCycleSpectrum(t *testing.T) {
	// Normalized Laplacian of the unit cycle: eigenvalues 1 − cos(2πk/n).
	n := 16
	g := cycleGraph(n)
	vals, vecs, err := Smallest(g, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Smallest non-zero: 1 − cos(2π/n) (multiplicity 2; plain Lanczos from
	// one start vector finds a single copy of a degenerate eigenvalue, so
	// later entries may skip to the next distinct value — all must still be
	// members of the known spectrum {1 − cos(2πk/n)}).
	want := 1 - math.Cos(2*math.Pi/float64(n))
	if math.Abs(vals[0]-want) > 1e-8 {
		t.Errorf("λ₂ = %v, want %v", vals[0], want)
	}
	for i, v := range vals {
		member := false
		for k := 0; k <= n/2; k++ {
			if math.Abs(v-(1-math.Cos(2*math.Pi*float64(k)/float64(n)))) < 1e-7 {
				member = true
				break
			}
		}
		if !member {
			t.Errorf("vals[%d] = %v not in the cycle spectrum", i, v)
		}
	}
	// Residual check: Â·x = λ·x.
	sqrtD := SqrtVolumes(g)
	scratch := make([]float64, n)
	ax := make([]float64, n)
	for i, x := range vecs {
		NormalizedMul(g, sqrtD, ax, x, scratch)
		for j := range ax {
			if math.Abs(ax[j]-vals[i]*x[j]) > 1e-7 {
				t.Fatalf("eigpair %d residual %v", i, ax[j]-vals[i]*x[j])
			}
		}
	}
}

func TestSmallestAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 6; it++ {
		n := 10 + rng.Intn(20)
		var es []graph.Edge
		for v := 1; v < n; v++ {
			es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.3 + rng.Float64()*2})
		}
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: 0.3 + rng.Float64()*2})
			}
		}
		g := graph.MustFromEdges(n, es)
		vals, _, err := Smallest(g, 3, n-1, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Dense truth: Â = D^{−1/2} A D^{−1/2}.
		lap := g.LapDense()
		sqrtD := SqrtVolumes(g)
		hat := dense.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				hat.Set(i, j, lap[i*n+j]/(sqrtD[i]*sqrtD[j]))
			}
		}
		dvals, _, err := dense.SymEig(hat)
		if err != nil {
			t.Fatal(err)
		}
		// dvals[0] ≈ 0 (kernel); compare the next three.
		for i := 0; i < 3; i++ {
			if math.Abs(vals[i]-dvals[i+1]) > 1e-6 {
				t.Fatalf("it=%d: λ%d = %v, dense %v", it, i, vals[i], dvals[i+1])
			}
		}
	}
}

func TestSmallestValidation(t *testing.T) {
	disc := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, _, err := Smallest(disc, 1, 0, 1); err == nil {
		t.Error("disconnected accepted")
	}
	g := cycleGraph(5)
	if _, _, err := Smallest(g, 0, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := Smallest(g, 5, 0, 1); err == nil {
		t.Error("k=n accepted")
	}
}

func TestCheegerBoundsBracketExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for it := 0; it < 8; it++ {
		n := 6 + rng.Intn(10)
		var es []graph.Edge
		for v := 1; v < n; v++ {
			es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.3 + rng.Float64()})
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: 0.3 + rng.Float64()})
			}
		}
		g := graph.MustFromEdges(n, es)
		lo, hi, err := CheegerBounds(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := g.ExactConductance()
		if err != nil {
			t.Fatal(err)
		}
		if exact < lo-1e-8 || exact > hi+1e-8 {
			t.Fatalf("it=%d: exact %v outside Cheeger bracket [%v, %v]", it, exact, lo, hi)
		}
	}
}

// Theorem 4.1: for any unit x spanned by eigenvectors with eigenvalues below
// λ, and any unit y ∈ Null(RᵀD^{1/2}): (xᵀy)² ≤ λmax(B,A)·λ. The maximum of
// (xᵀy)² over unit y is 1 − Alignment(x).
func TestTheorem41OnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for it := 0; it < 8; it++ {
		n := 12 + rng.Intn(16)
		g := treealg.RandomTree(rng, n, func() float64 { return 0.3 + rng.Float64()*3 })
		d, err := decomp.TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if d.Count < 2 {
			continue
		}
		b, err := steiner.SchurDense(d)
		if err != nil {
			t.Fatal(err)
		}
		a := dense.FromRowMajor(n, n, g.LapDense())
		sigmaBA, err := support.Sigma(b, a)
		if err != nil {
			t.Fatal(err)
		}
		k := 3
		if k >= n-1 {
			k = n - 2
		}
		vals, vecs, err := Smallest(g, k, n-1, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			misalign := 1 - Alignment(d, vecs[i])
			bound := sigmaBA * vals[i] * (1 + 1e-6)
			if misalign > bound+1e-7 {
				t.Fatalf("it=%d eig %d: misalignment %v > λmax(B,A)·λ = %v (λ=%v σ=%v)",
					it, i, misalign, bound, vals[i], sigmaBA)
			}
		}
	}
}

// The paper-stated form of Theorem 4.1 with the Theorem 3.5 constant:
// (xᵀy)² ≤ 3λ(1 + 2/φ³) for [φ, ρ] decompositions.
func TestTheorem41PaperConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := treealg.RandomTree(rng, 24, func() float64 { return 0.5 + rng.Float64() })
	d, err := decomp.TreeCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decomp.EvaluateCtx(context.Background(), d, graph.MaxExactConductance)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PhiExact {
		t.Fatal("need exact φ")
	}
	vals, vecs, err := Smallest(g, 3, g.N()-1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		misalign := 1 - Alignment(d, vecs[i])
		bound := 3 * vals[i] * (1 + 2/math.Pow(rep.Phi, 3))
		if misalign > bound+1e-7 {
			t.Errorf("eig %d: misalignment %v > paper bound %v", i, misalign, bound)
		}
	}
}

func TestAlignmentOfClusterConstantVector(t *testing.T) {
	// A vector that IS cluster-wise constant scaled by D^{1/2} must have
	// alignment exactly 1.
	g := workload.Grid2D(6, 6, workload.Lognormal(1), 3)
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.N())
	for v, c := range d.Assign {
		x[v] = math.Sqrt(g.Vol(v)) * float64(c+1)
	}
	nrm := 0.0
	for _, v := range x {
		nrm += v * v
	}
	nrm = math.Sqrt(nrm)
	for i := range x {
		x[i] /= nrm
	}
	if a := Alignment(d, x); math.Abs(a-1) > 1e-10 {
		t.Errorf("alignment = %v, want 1", a)
	}
}

func TestPortrait(t *testing.T) {
	g := workload.Grid2D(10, 10, workload.Lognormal(1), 4)
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Portrait(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if !r.Holds {
			t.Errorf("row %d: bound violated (%v > %v)", i, r.Misalignment, r.Bound)
		}
		if r.Index != i+2 {
			t.Errorf("row %d index = %d", i, r.Index)
		}
		if i > 0 && r.Lambda < rows[i-1].Lambda-1e-12 {
			t.Error("eigenvalues not ascending")
		}
	}
}

func TestAlignmentBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := workload.Grid2D(5, 5, nil, 1)
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.N())
	nrm := 0.0
	for i := range x {
		x[i] = rng.NormFloat64()
		nrm += x[i] * x[i]
	}
	nrm = math.Sqrt(nrm)
	for i := range x {
		x[i] /= nrm
	}
	a := Alignment(d, x)
	if a < -1e-12 || a > 1+1e-12 {
		t.Errorf("alignment %v outside [0,1]", a)
	}
}

func BenchmarkSmallestGrid(b *testing.B) {
	g := workload.Grid2D(30, 30, workload.Lognormal(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Smallest(g, 4, 80, 1); err != nil {
			b.Fatal(err)
		}
	}
}
