package graph

// LapMul computes dst = A·x where A is the Laplacian of g:
// dst[v] = Σ_u w(v,u)·(x[v] − x[u]). dst and x must have length N().
// Rows are independent, so large graphs are processed across cores; the
// result is bit-identical to the sequential loop. It is LapMulBlock at
// width 1.
func (g *Graph) LapMul(dst, x []float64) {
	g.lapMulBlockDispatch(dst, nil, x, 1)
}

// LapMulSerial is the single-goroutine matvec, bit-identical to LapMul. It
// exists as the reference implementation for equality tests and for
// benchmarking the parallel row-blocked path against a fixed serial baseline.
func (g *Graph) LapMulSerial(dst, x []float64) {
	g.lapMulRange(dst, nil, x, 0, g.N())
}

// lapMulRange computes rows [lo, hi) of dst = A·x, or of dst = r − A·x when
// r is non-nil (the residual is completed per row, then subtracted).
func (g *Graph) lapMulRange(dst, r, x []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		nbr, w := g.Neighbors(v)
		acc := 0.0
		xv := x[v]
		for i, u := range nbr {
			acc += w[i] * (xv - x[u])
		}
		if r != nil {
			acc = r[v] - acc
		}
		dst[v] = acc
	}
}

// LapQuad returns the Laplacian quadratic form xᵀAx = Σ_{(u,v)∈E} w·(x[u]−x[v])².
func (g *Graph) LapQuad(x []float64) float64 {
	q := 0.0
	for u := 0; u < g.N(); u++ {
		nbr, w := g.Neighbors(u)
		xu := x[u]
		for i, v := range nbr {
			if u < v {
				d := xu - x[v]
				q += w[i] * d * d
			}
		}
	}
	return q
}

// LapDense returns the Laplacian of g as a dense row-major n×n matrix; for
// tests and small direct factorizations only.
func (g *Graph) LapDense() []float64 {
	n := g.N()
	a := make([]float64, n*n)
	for v := 0; v < n; v++ {
		nbr, w := g.Neighbors(v)
		for i, u := range nbr {
			a[v*n+u] -= w[i]
			a[v*n+v] += w[i]
		}
	}
	return a
}

// Volumes returns a copy of the vertex volume vector, i.e. the diagonal D of
// the Laplacian.
func (g *Graph) Volumes() []float64 {
	return append([]float64(nil), g.vol...)
}
