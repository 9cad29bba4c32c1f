package solver

import (
	"math"

	"hcd/internal/par"
)

// Level-1 kernels. All of them operate on packed row-major [n][k] blocks —
// entry (v, j) lives at x[v*k+j] — so one sweep over the block streams each
// cache line once for all k columns; a single vector is the width-1 block.
// The hot kernels are *fused*: the PCG update x += α∘p, r −= α∘ap runs in
// the same pass that accumulates the column sums (or squared norms) the next
// step needs, cutting the per-iteration memory passes roughly in half versus
// a separate kernel per operation.
//
// Reductions use a fixed chunk partition that depends only on (n, k), never
// on the worker count: per-chunk partials are written into a scratch table
// and combined in chunk order, so every reduction — and therefore every
// solve — is bit-identical at any GOMAXPROCS.
//
// Each kernel body has a width-1 form that accumulates into a local: at
// k = 1 a slice accumulator (acc[j] += …) turns every element into a
// store-then-load chain, the trap lapMulBlockRange's tiles avoid for the
// same reason.
//
// Allocation: the bodies are plain functions reading their operands from
// the scratch (rowArgs), so a reduction that fits one chunk, or runs on one
// worker, creates no closure. Only the multi-worker branch builds one for
// par.For, which keeps warm Engine solves on small systems allocation-free.

// kernelGrain is the per-chunk element count of the level-1 kernels: a
// width-k chunk covers about kernelGrain floats (see blockGrain).
const kernelGrain = 16384

// blockGrain returns the per-chunk row count for width-k block kernels: the
// kernel grain scaled down by the block width so a chunk touches roughly the
// same number of floats, floored to bound scheduling overhead. It must
// depend only on k — the reduction chunk layout derives from it.
func blockGrain(k int) int {
	g := kernelGrain / k
	if g < 512 {
		g = 512
	}
	return g
}

// rowArgs holds the operands of the running kernel. Which fields a body
// reads is documented at the kernel that sets them.
type rowArgs struct {
	x, r, p, ap []float64
	coef        []float64 // per-column α or mean
}

// rowFn computes rows [lo, hi) of a width-k kernel, adding per-column
// partials into acc (nil for elementwise kernels).
type rowFn func(o *rowArgs, k, lo, hi int, acc []float64)

// reduceRows runs fn over a fixed partition of [0, n) into blockGrain(k)-row
// chunks, each accumulating per-column partials into its own k-wide slot of
// the scratch partial table, then combines the partials in chunk order. The
// partition and combination order are functions of (n, k) alone, so the
// result is bit-identical at any GOMAXPROCS. fn may also mutate the block
// elementwise (the fused kernels do); chunks cover disjoint row ranges, so
// such writes never race.
func (s *scratch) reduceRows(fn rowFn, n, k int, out []float64) {
	out = out[:k]
	for j := range out {
		out[j] = 0
	}
	grain := blockGrain(k)
	chunks := (n + grain - 1) / grain
	if chunks <= 1 {
		fn(&s.args, k, 0, n, out)
		return
	}
	partial := s.vec(&s.partial, chunks*k)
	zero(partial)
	if par.Workers() == 1 {
		// Same chunk partition as the parallel path: still one fn call per
		// chunk, so the partial sums round identically.
		s.reduceChunks(fn, n, k, 0, chunks)
	} else {
		par.For(chunks, 1, func(clo, chi int) { s.reduceChunks(fn, n, k, clo, chi) })
	}
	for c := 0; c < chunks; c++ {
		p := partial[c*k : c*k+k]
		for j := range out {
			out[j] += p[j]
		}
	}
}

func (s *scratch) reduceChunks(fn rowFn, n, k, clo, chi int) {
	grain := blockGrain(k)
	for c := clo; c < chi; c++ {
		lo := c * grain
		hi := min(lo+grain, n)
		fn(&s.args, k, lo, hi, s.partial[c*k:c*k+k])
	}
}

// mapRows runs the elementwise fn over [0, n). Any chunking is
// bit-identical, so it uses par.For directly above the grain.
func (s *scratch) mapRows(fn rowFn, n, k int) {
	grain := blockGrain(k)
	if n <= grain || par.Workers() == 1 {
		fn(&s.args, k, 0, n, nil)
		return
	}
	par.For(n, grain, func(lo, hi int) { fn(&s.args, k, lo, hi, nil) })
}

// blockDots computes out[j] = Σ_v a[v·k+j]·b[v·k+j] for each column j.
func (s *scratch) blockDots(a, b []float64, n, k int, out []float64) {
	s.args = rowArgs{x: a, r: b}
	s.reduceRows(dotRows, n, k, out)
}

func dotRows(o *rowArgs, k, lo, hi int, acc []float64) {
	a, b := o.x, o.r
	if k == 1 {
		a, b = a[lo:hi], b[lo:hi]
		b = b[:len(a)]
		sum := 0.0
		for i := range a {
			sum += a[i] * b[i]
		}
		acc[0] += sum
		return
	}
	for v := lo; v < hi; v++ {
		av := a[v*k : v*k+k : v*k+k]
		bv := b[v*k : v*k+k : v*k+k]
		for j := range av {
			acc[j] += av[j] * bv[j]
		}
	}
}

// blockNormSq computes out[j] = Σ_v x[v·k+j]² (squared column norms).
func (s *scratch) blockNormSq(x []float64, n, k int, out []float64) {
	s.args = rowArgs{x: x}
	s.reduceRows(normSqRows, n, k, out)
}

func normSqRows(o *rowArgs, k, lo, hi int, acc []float64) {
	x := o.x
	if k == 1 {
		sum := 0.0
		for _, v := range x[lo:hi] {
			sum += v * v
		}
		acc[0] += sum
		return
	}
	for v := lo; v < hi; v++ {
		xv := x[v*k : v*k+k : v*k+k]
		for j := range xv {
			acc[j] += xv[j] * xv[j]
		}
	}
}

// blockColSums computes out[j] = Σ_v x[v·k+j] (pass 1 of the block mean
// projection).
func (s *scratch) blockColSums(x []float64, n, k int, out []float64) {
	s.args = rowArgs{x: x}
	s.reduceRows(colSumRows, n, k, out)
}

func colSumRows(o *rowArgs, k, lo, hi int, acc []float64) {
	x := o.x
	if k == 1 {
		sum := 0.0
		for _, v := range x[lo:hi] {
			sum += v
		}
		acc[0] += sum
		return
	}
	for v := lo; v < hi; v++ {
		xv := x[v*k : v*k+k : v*k+k]
		for j := range xv {
			acc[j] += xv[j]
		}
	}
}

// blockSubMeanNormSq subtracts mean[j] from column j and accumulates the new
// squared column norms in the same sweep (fused pass 2 of the projection).
func (s *scratch) blockSubMeanNormSq(x []float64, n, k int, mean, out []float64) {
	s.args = rowArgs{x: x, coef: mean}
	s.reduceRows(subMeanNormSqRows, n, k, out)
}

func subMeanNormSqRows(o *rowArgs, k, lo, hi int, acc []float64) {
	x, mean := o.x, o.coef
	if k == 1 {
		m := mean[0]
		xs := x[lo:hi]
		sum := 0.0
		for i := range xs {
			xi := xs[i] - m
			xs[i] = xi
			sum += xi * xi
		}
		acc[0] += sum
		return
	}
	for v := lo; v < hi; v++ {
		xv := x[v*k : v*k+k : v*k+k]
		for j := range xv {
			xv[j] -= mean[j]
			acc[j] += xv[j] * xv[j]
		}
	}
}

// blockSubMeanDot subtracts mean[j] from z's column j and accumulates the
// preconditioned inner product out[j] = rᵀz in the same sweep (the fused
// z-projection + rᵀz step).
func (s *scratch) blockSubMeanDot(z, r []float64, n, k int, mean, out []float64) {
	s.args = rowArgs{x: z, r: r, coef: mean}
	s.reduceRows(subMeanDotRows, n, k, out)
}

func subMeanDotRows(o *rowArgs, k, lo, hi int, acc []float64) {
	z, r, mean := o.x, o.r, o.coef
	if k == 1 {
		m := mean[0]
		zs, rs := z[lo:hi], r[lo:hi]
		rs = rs[:len(zs)]
		sum := 0.0
		for i := range zs {
			zi := zs[i] - m
			zs[i] = zi
			sum += rs[i] * zi
		}
		acc[0] += sum
		return
	}
	for v := lo; v < hi; v++ {
		zv := z[v*k : v*k+k : v*k+k]
		rv := r[v*k : v*k+k : v*k+k]
		for j := range zv {
			zv[j] -= mean[j]
			acc[j] += rv[j] * zv[j]
		}
	}
}

// blockUpdateXRSums is the fused PCG update for projected (singular) systems:
// x += α∘p, r −= α∘ap, with the new residual's column sums — pass 1 of the
// next mean projection — accumulated in the same sweep.
func (s *scratch) blockUpdateXRSums(x, r, p, ap, alpha []float64, n, k int, sums []float64) {
	s.args = rowArgs{x: x, r: r, p: p, ap: ap, coef: alpha}
	s.reduceRows(updateXRSumRows, n, k, sums)
}

func updateXRSumRows(o *rowArgs, k, lo, hi int, acc []float64) {
	x, r, p, ap, alpha := o.x, o.r, o.p, o.ap, o.coef
	if k == 1 {
		a := alpha[0]
		xs, rs, ps, as := x[lo:hi], r[lo:hi], p[lo:hi], ap[lo:hi]
		rs, ps, as = rs[:len(xs)], ps[:len(xs)], as[:len(xs)]
		sum := 0.0
		for i := range xs {
			xs[i] += a * ps[i]
			ri := rs[i] - a*as[i]
			rs[i] = ri
			sum += ri
		}
		acc[0] += sum
		return
	}
	for v := lo; v < hi; v++ {
		xv := x[v*k : v*k+k : v*k+k]
		rv := r[v*k : v*k+k : v*k+k]
		pv := p[v*k : v*k+k : v*k+k]
		av := ap[v*k : v*k+k : v*k+k]
		for j := range xv {
			a := alpha[j]
			xv[j] += a * pv[j]
			rv[j] -= a * av[j]
			acc[j] += rv[j]
		}
	}
}

// blockUpdateXRNormSq is the fused PCG update for non-projected systems:
// x += α∘p, r −= α∘ap, accumulating the new squared residual norms directly.
func (s *scratch) blockUpdateXRNormSq(x, r, p, ap, alpha []float64, n, k int, out []float64) {
	s.args = rowArgs{x: x, r: r, p: p, ap: ap, coef: alpha}
	s.reduceRows(updateXRNormSqRows, n, k, out)
}

func updateXRNormSqRows(o *rowArgs, k, lo, hi int, acc []float64) {
	x, r, p, ap, alpha := o.x, o.r, o.p, o.ap, o.coef
	if k == 1 {
		a := alpha[0]
		xs, rs, ps, as := x[lo:hi], r[lo:hi], p[lo:hi], ap[lo:hi]
		rs, ps, as = rs[:len(xs)], ps[:len(xs)], as[:len(xs)]
		sum := 0.0
		for i := range xs {
			xs[i] += a * ps[i]
			ri := rs[i] - a*as[i]
			rs[i] = ri
			sum += ri * ri
		}
		acc[0] += sum
		return
	}
	for v := lo; v < hi; v++ {
		xv := x[v*k : v*k+k : v*k+k]
		rv := r[v*k : v*k+k : v*k+k]
		pv := p[v*k : v*k+k : v*k+k]
		av := ap[v*k : v*k+k : v*k+k]
		for j := range xv {
			a := alpha[j]
			xv[j] += a * pv[j]
			rv[j] -= a * av[j]
			acc[j] += rv[j] * rv[j]
		}
	}
}

// blockXPBY computes p = z + β∘p per column (the direction update).
func (s *scratch) blockXPBY(p, z, beta []float64, n, k int) {
	s.args = rowArgs{p: p, x: z, coef: beta}
	s.mapRows(xpbyRows, n, k)
}

func xpbyRows(o *rowArgs, k, lo, hi int, _ []float64) {
	p, z, beta := o.p, o.x, o.coef
	if k == 1 {
		b := beta[0]
		ps, zs := p[lo:hi], z[lo:hi]
		zs = zs[:len(ps)]
		for i := range ps {
			ps[i] = zs[i] + b*ps[i]
		}
		return
	}
	for v := lo; v < hi; v++ {
		pv := p[v*k : v*k+k : v*k+k]
		zv := z[v*k : v*k+k : v*k+k]
		for j := range pv {
			pv[j] = zv[j] + beta[j]*pv[j]
		}
	}
}

// projectedNorms sets rn[j] = ‖r_j‖ for the k packed columns of r, first
// projecting every column onto the mean-free subspace when project is set.
func (s *scratch) projectedNorms(r []float64, n, k int, project bool, rn []float64) {
	if project {
		mean := s.vec(&s.mean, k)
		s.blockColSums(r, n, k, mean)
		divide(mean, n)
		s.blockSubMeanNormSq(r, n, k, mean, rn)
	} else {
		s.blockNormSq(r, n, k, rn)
	}
	sqrtAll(rn[:k])
}

// updateXR is the fused iteration step x += α∘p, r −= α∘ap, followed by the
// projection of r (when project is set) and its new column norms rn.
func (s *scratch) updateXR(x, r, p, ap, alpha []float64, n, k int, project bool, rn []float64) {
	if project {
		mean := s.vec(&s.mean, k)
		s.blockUpdateXRSums(x, r, p, ap, alpha, n, k, mean)
		divide(mean, n)
		s.blockSubMeanNormSq(r, n, k, mean, rn)
	} else {
		s.blockUpdateXRNormSq(x, r, p, ap, alpha, n, k, rn)
	}
	sqrtAll(rn[:k])
}

// projectMean subtracts each column's mean from the packed block z; the
// squared norms the fused pass also yields land in the scratch's rzNew and
// are not used.
func (s *scratch) projectMean(z []float64, n, k int) {
	mean := s.vec(&s.mean, k)
	s.blockColSums(z, n, k, mean)
	divide(mean, n)
	s.blockSubMeanNormSq(z, n, k, mean, s.vec(&s.rzNew, k))
}

func divide(xs []float64, n int) {
	for j := range xs {
		xs[j] /= float64(n)
	}
}

func sqrtAll(xs []float64) {
	for j := range xs {
		xs[j] = math.Sqrt(xs[j])
	}
}

// packColumns interleaves the columns src[j], j ∈ cols, into the packed
// row-major block dst of width len(cols).
func packColumns(dst []float64, src [][]float64, cols []int, n int) {
	k := len(cols)
	for pos, j := range cols {
		col := src[j][:n]
		for v, x := range col {
			dst[v*k+pos] = x
		}
	}
}

// compactPacked left-compacts the packed width-kA block to the kept column
// positions (ascending). In place and serial: for ascending rows and
// positions every write lands at or below the index it read from, and
// deflation runs at most k times per solve, so this is never hot.
func compactPacked(buf []float64, n, kA int, keep []int) {
	newK := len(keep)
	for v := 0; v < n; v++ {
		src := buf[v*kA : v*kA+kA]
		dst := buf[v*newK : v*newK+newK]
		for idx, pos := range keep {
			dst[idx] = src[pos]
		}
	}
}
