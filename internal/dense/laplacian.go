package dense

import "fmt"

// PinnedLaplacian is a direct solver for a (singular) graph Laplacian: one
// vertex per connected component is "pinned" to zero, the remaining principal
// submatrix is SPD and Cholesky-factored. For right-hand sides orthogonal to
// the all-ones vector on every component, Solve followed by per-component
// de-meaning returns exactly the pseudo-inverse solution A⁺b.
type PinnedLaplacian struct {
	n     int
	free  []int // free vertex ids in factor order
	where []int // vertex -> index in free, or −1 if pinned
	comp  []int // component label per vertex
	ncomp int
	chol  *Cholesky
	csize []int     // component sizes, for de-meaning
	buf   []float64 // solve staging, grown on demand
	csum  []float64
}

// NewPinnedLaplacian factors the dense Laplacian a whose connectivity is
// described by comp (component label per vertex, labels in [0, ncomp)). The
// first vertex of each component is pinned.
func NewPinnedLaplacian(a *Matrix, comp []int, ncomp int) (*PinnedLaplacian, error) {
	n := a.Rows
	if a.Cols != n || len(comp) != n {
		return nil, fmt.Errorf("dense: PinnedLaplacian shape mismatch")
	}
	pinned := make([]int, ncomp)
	for i := range pinned {
		pinned[i] = -1
	}
	where := make([]int, n)
	var free []int
	for v := 0; v < n; v++ {
		c := comp[v]
		if c < 0 || c >= ncomp {
			return nil, fmt.Errorf("dense: component label %d out of range", c)
		}
		if pinned[c] < 0 {
			pinned[c] = v
			where[v] = -1
		} else {
			where[v] = len(free)
			free = append(free, v)
		}
	}
	sub := NewMatrix(len(free), len(free))
	for i, vi := range free {
		for j, vj := range free {
			sub.Set(i, j, a.At(vi, vj))
		}
	}
	var chol *Cholesky
	if len(free) > 0 {
		var err error
		chol, err = NewCholesky(sub)
		if err != nil {
			return nil, fmt.Errorf("dense: pinned Laplacian not SPD on free vertices: %w", err)
		}
	}
	csize := make([]int, ncomp)
	for _, c := range comp {
		csize[c]++
	}
	return &PinnedLaplacian{
		n: n, free: free, where: where, comp: comp, ncomp: ncomp,
		chol: chol, csize: csize,
	}, nil
}

// Solve writes into dst a solution of A·x = b with zero mean on every
// component. b must be orthogonal to the constant vector on each component
// (up to roundoff); this is not checked. It is SolveBlock at width 1.
func (p *PinnedLaplacian) Solve(dst, b []float64) { p.SolveBlock(dst, b, 1) }

// SolveBlock solves A·X = B for k packed right-hand sides (row-major: entry
// (v, j) at b[v*k+j]) with zero mean per component on every column. The
// Cholesky factor is streamed once for all k columns; per column the
// operation order is that of a single-vector solve. Not safe for concurrent
// use (internal scratch).
func (p *PinnedLaplacian) SolveBlock(dst, b []float64, k int) {
	if len(dst) != p.n*k || len(b) != p.n*k {
		panic("dense: PinnedLaplacian.SolveBlock shape mismatch")
	}
	// Flat indices (v·k + j) rather than a row slice per vertex: at k = 1 a
	// slice or copy call per element would cost more than the element.
	nf := len(p.free)
	if cap(p.buf) < nf*k {
		p.buf = make([]float64, nf*k)
	}
	buf := p.buf[:nf*k]
	for i, v := range p.free {
		for j := 0; j < k; j++ {
			buf[i*k+j] = b[v*k+j]
		}
	}
	if p.chol != nil {
		p.chol.SolveBlock(buf, buf, k)
	}
	for v := 0; v < p.n; v++ {
		w := p.where[v]
		for j := 0; j < k; j++ {
			if w >= 0 {
				dst[v*k+j] = buf[w*k+j]
			} else {
				dst[v*k+j] = 0
			}
		}
	}
	// De-mean per component so the answer matches the pseudo-inverse.
	if cap(p.csum) < p.ncomp*k {
		p.csum = make([]float64, p.ncomp*k)
	}
	cs := p.csum[:p.ncomp*k]
	for i := range cs {
		cs[i] = 0
	}
	for v := 0; v < p.n; v++ {
		c := p.comp[v]
		for j := 0; j < k; j++ {
			cs[c*k+j] += dst[v*k+j]
		}
	}
	for v := 0; v < p.n; v++ {
		c := p.comp[v]
		sz := float64(p.csize[c])
		for j := 0; j < k; j++ {
			dst[v*k+j] -= cs[c*k+j] / sz
		}
	}
}

// N returns the dimension.
func (p *PinnedLaplacian) N() int { return p.n }
