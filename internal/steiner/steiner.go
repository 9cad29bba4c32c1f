// Package steiner implements the Steiner-graph preconditioners of Section 3.
// Given a decomposition P of a graph A, Definition 3.1 attaches to each
// cluster Vi a star Ti whose root ri connects to every u ∈ Vi with weight
// vol(u), and joins the roots by the quotient graph Q with
// w(ri, rj) = cap(Vi, Vj): the Steiner graph S_P = Q + Σ Ti.
//
// Gremban showed preconditioning with S_P is equivalent to preconditioning
// with its Schur complement B = D − V(Q+D_Q)⁻¹Vᵀ on the original vertices.
// Eliminating the leaf block analytically collapses the whole apply to
//
//	B⁺ r = D⁻¹ r + R Q⁺ (Rᵀ r)
//
// — one diagonal scale, one restriction, a quotient Laplacian solve, and one
// prolongation. This is the "weighted cluster-wise sums" remark (Remark 2)
// and the reason the preconditioner is embarrassingly parallel to apply.
package steiner

import (
	"context"
	"fmt"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/par"
	"hcd/internal/solver"
)

// Options configures the quotient solve inside the preconditioner.
type Options struct {
	// DirectLimit is the largest quotient size solved by dense Cholesky;
	// larger quotients fall back to an inner Jacobi-PCG solve.
	DirectLimit int
	// InnerTol and InnerMaxIter bound the fallback inner solve.
	InnerTol     float64
	InnerMaxIter int
}

// DefaultOptions uses a 2500-vertex dense direct limit.
func DefaultOptions() Options {
	return Options{DirectLimit: 2500, InnerTol: 1e-10, InnerMaxIter: 2000}
}

// Preconditioner applies B⁺ for the Steiner graph of a decomposition.
type Preconditioner struct {
	n, m   int
	assign []int
	dInv   []float64
	qSolve func(dst, r []float64)
	// order lists vertices sorted by cluster and start[c] delimits cluster
	// c's segment, so the restriction Rᵀr is a conflict-free segmented sum
	// (the "weighted cluster-wise sums" of Remark 2, run across cores).
	order, start []int
	// scratch
	rq, yq []float64
	// Quotient is the quotient graph (exported for hierarchies/inspection).
	Quotient *graph.Graph
}

// New builds the Steiner preconditioner for the graph underlying d.
func New(d *decomp.Decomposition, opt Options) (*Preconditioner, error) {
	g := d.G
	n := g.N()
	if len(d.Assign) != n {
		return nil, fmt.Errorf("steiner: decomposition does not match graph")
	}
	q := g.Contract(d.Assign, d.Count)
	p := &Preconditioner{
		n: n, m: d.Count, assign: d.Assign,
		dInv:     make([]float64, n),
		rq:       make([]float64, d.Count),
		yq:       make([]float64, d.Count),
		Quotient: q,
	}
	for v := 0; v < n; v++ {
		if vol := g.Vol(v); vol > 0 {
			p.dInv[v] = 1 / vol
		}
	}
	// Counting sort of vertices by cluster for the segmented restriction.
	p.start = make([]int, d.Count+1)
	for _, c := range d.Assign {
		p.start[c+1]++
	}
	for c := 0; c < d.Count; c++ {
		p.start[c+1] += p.start[c]
	}
	p.order = make([]int, n)
	fill := append([]int(nil), p.start[:d.Count]...)
	for v, c := range d.Assign {
		p.order[fill[c]] = v
		fill[c]++
	}
	if q.N() <= opt.DirectLimit {
		comp, ncomp := q.Components()
		lap := dense.FromRowMajor(q.N(), q.N(), q.LapDense())
		pin, err := dense.NewPinnedLaplacian(lap, comp, ncomp)
		if err != nil {
			return nil, fmt.Errorf("steiner: quotient factorization failed: %w", err)
		}
		p.qSolve = pin.Solve
	} else {
		op := solver.LapOperator(q)
		jac := solver.Jacobi(q)
		tol, maxIter := opt.InnerTol, opt.InnerMaxIter
		p.qSolve = func(dst, r []float64) {
			res, err := solver.PCGCtx(context.TODO(), op, jac, r,
				solver.Options{Tol: tol, MaxIter: maxIter, ProjectMean: true})
			if err != nil {
				// The enclosing solve recovers the panic into its error.
				panic(err)
			}
			copy(dst, res.X)
		}
	}
	return p, nil
}

// Dim returns the number of original vertices.
func (p *Preconditioner) Dim() int { return p.n }

// Apply computes dst = B⁺ r via the two-level identity. Restriction and
// prolongation are embarrassingly parallel (Remark 2) and run across cores.
func (p *Preconditioner) Apply(dst, r []float64) {
	par.For(p.m, 512, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			acc := 0.0
			for i := p.start[c]; i < p.start[c+1]; i++ {
				acc += r[p.order[i]]
			}
			p.rq[c] = acc
		}
	})
	p.qSolve(p.yq, p.rq)
	par.For(p.n, 8192, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			dst[v] = r[v]*p.dInv[v] + p.yq[p.assign[v]]
		}
	})
}

// SteinerGraph materializes S_P itself: vertices 0..n−1 are the leaves
// (original vertices), n..n+m−1 the cluster roots. Used by the verification
// tests and the spectral experiments of Section 4.
func SteinerGraph(d *decomp.Decomposition) *graph.Graph {
	g := d.G
	n := g.N()
	var es []graph.Edge
	for v := 0; v < n; v++ {
		if g.Vol(v) > 0 {
			es = append(es, graph.Edge{U: v, V: n + d.Assign[v], W: g.Vol(v)})
		}
	}
	q := g.Contract(d.Assign, d.Count)
	for _, e := range q.Edges() {
		es = append(es, graph.Edge{U: n + e.U, V: n + e.V, W: e.W})
	}
	return graph.MustFromEdges(n+d.Count, es)
}

// SchurDense computes the Schur complement B = D − V(Q+D_Q)⁻¹Vᵀ densely;
// for tests and the Theorem 3.5 / 4.1 verifications on small graphs only.
func SchurDense(d *decomp.Decomposition) (*dense.Matrix, error) {
	g := d.G
	n, m := g.N(), d.Count
	q := g.Contract(d.Assign, d.Count)
	// Q + D_Q is strictly diagonally dominant wherever a cluster has
	// volume, hence SPD after dropping zero rows; assemble densely.
	qd := dense.FromRowMajor(m, m, q.LapDense())
	for v := 0; v < n; v++ {
		c := d.Assign[v]
		qd.Add(c, c, g.Vol(v))
	}
	ch, err := dense.NewCholesky(qd)
	if err != nil {
		return nil, fmt.Errorf("steiner: Q+D_Q not SPD: %w", err)
	}
	// B = D − V (Q+D_Q)⁻¹ Vᵀ with V = DR: column c of Vᵀ is the volume
	// vector of cluster c.
	b := dense.NewMatrix(n, n)
	// Compute X = (Q+D_Q)⁻¹ Vᵀ column by column over original vertices.
	col := make([]float64, m)
	sol := make([]float64, m)
	for u := 0; u < n; u++ {
		for i := range col {
			col[i] = 0
		}
		col[d.Assign[u]] = g.Vol(u)
		ch.Solve(sol, col)
		for v := 0; v < n; v++ {
			b.Add(v, u, -g.Vol(v)*sol[d.Assign[v]])
		}
	}
	for v := 0; v < n; v++ {
		b.Add(v, v, g.Vol(v))
	}
	return b, nil
}
