// Package hierarchy implements the recursive construction the paper sketches
// at the end of Section 1.1 and Remark 3: applying the Section 3.1
// clustering recursively yields a laminar decomposition and a hierarchy of
// Steiner preconditioners — the precursor of combinatorial multigrid (CMG).
//
// Each level stores its graph, a [φ, 2] clustering of it, and the quotient.
// The apply uses the exact two-level identity B⁺r = D⁻¹r + R·Q⁺(Rᵀr) with
// the quotient solve replaced by the next level's apply; the coarsest level
// is solved directly. An optional damped-Jacobi pre/post smoothing pair
// turns the pure recursion into a symmetric V-cycle.
package hierarchy

import (
	"context"
	"fmt"
	"sync"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// Options configures the hierarchy.
type Options struct {
	SizeCap     int   // cluster size cap per level (≥ 2)
	Seed        int64 // perturbation seed for the clusterings
	DirectLimit int   // coarsest-level size solved densely
	MaxLevels   int   // hard cap on depth
	Smooth      int   // damped-Jacobi pre/post smoothing sweeps per level
	// Shards splits each level's clustering into that many concurrently
	// built vertex-range shards while the level graph is large enough
	// (≥ shardMinVertices); smaller levels always build single-pass. 0 or 1
	// keeps every level single-pass (bit-identical to pre-shard builds).
	Shards int
}

// shardMinVertices gates per-level sharding: below this size a level's
// clustering is cheap enough that shard bookkeeping (partition + stitch)
// costs more than the fan-out saves.
const shardMinVertices = 1 << 15

// DefaultOptions: clusters of ~4, 600-vertex coarse solves, one smoothing
// sweep.
func DefaultOptions() Options {
	return Options{SizeCap: 4, Seed: 1, DirectLimit: 600, MaxLevels: 40, Smooth: 1}
}

// Level is one layer of the laminar decomposition.
type Level struct {
	G      *graph.Graph
	D      *decomp.Decomposition
	dInv   []float64
	smooth int
	// order/start: vertices sorted by cluster, for the conflict-free
	// parallel restriction (segmented sums).
	order, start []int
}

// Hierarchy is a multilevel Steiner preconditioner.
type Hierarchy struct {
	levels  []*Level
	coarseG *graph.Graph
	coarse  *dense.PinnedLaplacian
	// Apply state: pooled per-apply work buffers and a lock serializing the
	// coarse factorization's internal scratch. Both make concurrent
	// Apply/ApplyBlock calls on one Hierarchy safe — the server's pooled
	// engines solve through a shared Hierarchy from several goroutines at
	// once.
	bwPool   sync.Pool
	coarseMu sync.Mutex
}

// New builds the hierarchy for g.
func New(g *graph.Graph, opt Options) (*Hierarchy, error) {
	return NewCtx(context.Background(), g, opt)
}

// NewCtx is New under a context: the per-level clustering polls cancellation
// and the level loop checks once per level, so a cancelled setup returns an
// error wrapping decomp.ErrBuildCancelled promptly (the final dense coarse
// factorization runs to completion once reached).
//
// A panic during setup — including worker panics surfaced by internal/par —
// is recovered and returned as an error. A clustering that produces no
// vertex reduction on a still-large graph (a degenerate or corrupted build)
// is rejected with an error rather than handed to the dense coarse
// factorization, whose O(n³) cost on an unreduced graph would be a far worse
// failure than an explicit one.
func NewCtx(ctx context.Context, g *graph.Graph, opt Options) (h *Hierarchy, err error) {
	defer func() {
		if v := recover(); v != nil {
			h, err = nil, fmt.Errorf("hierarchy: panic during setup: %w", par.AsError(v))
		}
	}()
	if opt.SizeCap < 2 {
		return nil, fmt.Errorf("hierarchy: SizeCap must be ≥ 2")
	}
	if opt.DirectLimit < 1 {
		opt.DirectLimit = 1
	}
	ctx, hsp := obs.StartSpan(ctx, "hierarchy/build")
	defer hsp.End()
	h = &Hierarchy{}
	cur := g
	for level := 0; cur.N() > opt.DirectLimit && level < opt.MaxLevels; level++ {
		if ctx.Err() != nil {
			return nil, decomp.Cancelled(ctx)
		}
		lctx := ctx
		var lsp *obs.Span
		if hsp != nil {
			lctx, lsp = obs.StartSpan(ctx, fmt.Sprintf("hierarchy/level-%d", level))
			lsp.Arg("vertices", cur.N())
		}
		var d *decomp.Decomposition
		var err error
		if opt.Shards > 1 && cur.N() >= shardMinVertices {
			d, _, err = decomp.FixedDegreeShardedCtx(lctx, cur, opt.SizeCap, opt.Seed+int64(level), opt.Shards)
		} else {
			d, err = decomp.FixedDegreeCtx(lctx, cur, opt.SizeCap, opt.Seed+int64(level))
		}
		lsp.End()
		if err != nil {
			return nil, fmt.Errorf("hierarchy: level %d clustering failed: %w", level, err)
		}
		if d.Count >= cur.N() {
			// No reduction possible (e.g. all isolated vertices). Tolerable
			// only if the graph is already near the direct-solve size;
			// otherwise the "coarse" solve would densely factorize an
			// essentially unreduced graph.
			if cur.N() > 4*opt.DirectLimit {
				return nil, fmt.Errorf("hierarchy: level %d clustering produced no reduction (%d clusters on %d vertices, direct limit %d)",
					level, d.Count, cur.N(), opt.DirectLimit)
			}
			break
		}
		h.levels = append(h.levels, newLevel(cur, d, opt.Smooth))
		cur = cur.Contract(d.Assign, d.Count)
	}
	if err := h.finish(cur); err != nil {
		return nil, err
	}
	if hsp != nil {
		hsp.Arg("levels", len(h.levels))
		hsp.Arg("coarse_size", cur.N())
	}
	return h, nil
}

// newLevel materializes one layer: the diagonal inverse and the
// cluster-sorted vertex order for the conflict-free parallel restriction.
// Apply scratch is not stored here — it lives in pooled per-apply
// workspaces so concurrent applies never share buffers.
func newLevel(cur *graph.Graph, d *decomp.Decomposition, smooth int) *Level {
	l := &Level{
		G: cur, D: d, smooth: smooth,
		dInv: make([]float64, cur.N()),
	}
	for v := 0; v < cur.N(); v++ {
		if vol := cur.Vol(v); vol > 0 {
			l.dInv[v] = 1 / vol
		}
	}
	l.start = make([]int, d.Count+1)
	for _, c := range d.Assign {
		l.start[c+1]++
	}
	for c := 0; c < d.Count; c++ {
		l.start[c+1] += l.start[c]
	}
	l.order = make([]int, cur.N())
	fill := append([]int(nil), l.start[:d.Count]...)
	for v, c := range d.Assign {
		l.order[fill[c]] = v
		fill[c]++
	}
	return l
}

// finish installs the coarsest graph and its dense pinned factorization.
func (h *Hierarchy) finish(cur *graph.Graph) error {
	h.coarseG = cur
	comp, ncomp := cur.Components()
	lap := dense.FromRowMajor(cur.N(), cur.N(), cur.LapDense())
	pin, err := dense.NewPinnedLaplacian(lap, comp, ncomp)
	if err != nil {
		return fmt.Errorf("hierarchy: coarse factorization failed: %w", err)
	}
	h.coarse = pin
	return nil
}

// Depth returns the number of clustering levels (excluding the direct
// coarse solve).
func (h *Hierarchy) Depth() int { return len(h.levels) }

// CoarseSize returns the size of the directly solved coarsest graph.
func (h *Hierarchy) CoarseSize() int { return h.coarseG.N() }

// LevelSizes returns the vertex counts down the hierarchy, coarsest last.
func (h *Hierarchy) LevelSizes() []int {
	sizes := make([]int, 0, len(h.levels)+1)
	for _, l := range h.levels {
		sizes = append(sizes, l.G.N())
	}
	return append(sizes, h.coarseG.N())
}

// MemoryBytes estimates the resident size of the hierarchy: every level's
// graph, clustering and work buffers, plus the dense coarse factorization.
// It is the accounting figure behind the serving layer's byte-budgeted
// handle cache, not an exact heap measurement.
func (h *Hierarchy) MemoryBytes() int64 {
	var b int64
	for _, l := range h.levels {
		b += l.G.Bytes()
		b += 8 * int64(len(l.dInv)+len(l.order)+len(l.start))
		// The clustering's assignment vector, plus one pooled apply
		// workspace's per-level share (two n-vectors, two quotient vectors).
		b += 8 * int64(3*l.G.N()+2*l.D.Count)
	}
	if h.coarseG != nil {
		cn := int64(h.coarseG.N())
		b += h.coarseG.Bytes() + 8*cn*cn
	}
	return b
}

// Dim returns the fine-level dimension.
func (h *Hierarchy) Dim() int {
	if len(h.levels) == 0 {
		return h.coarseG.N()
	}
	return h.levels[0].G.N()
}

// Apply computes dst ≈ B⁺·r multilevel-recursively. It is a fixed symmetric
// positive semidefinite linear operator, hence a valid stationary PCG
// preconditioner. It is ApplyBlock at width 1: safe for concurrent use and
// bit-identical at any worker count.
func (h *Hierarchy) Apply(dst, r []float64) { h.ApplyBlock(dst, r, 1) }

// ApplyBlock computes dst ≈ B⁺·r for k packed row-major columns (dst[v*k+j]
// is column j at vertex v): one traversal of the hierarchy smooths,
// restricts and coarse-solves all k residuals, so every quotient graph and
// every level's diagonal stream through memory once per cycle instead of
// once per column — the amortization the block Laplacian matvec gets from
// the CSR. It implements the solver's BlockApplier fast path.
//
// Work buffers come from the hierarchy's sync.Pool and the coarse direct
// solve is serialized, so concurrent applies on one Hierarchy — the server's
// pooled engines land here — are safe. Every step is elementwise, a
// fixed-order segmented sum, or the GOMAXPROCS-invariant LapMulBlock, so the
// result is bit-identical at any worker count.
func (h *Hierarchy) ApplyBlock(dst, r []float64, k int) {
	w, _ := h.bwPool.Get().(*applyWork)
	if w == nil {
		w = &applyWork{}
	}
	for len(w.rq) < len(h.levels) {
		w.rq = append(w.rq, nil)
		w.xq = append(w.xq, nil)
		w.tmp = append(w.tmp, nil)
		w.tmp2 = append(w.tmp2, nil)
	}
	h.applyLevel(0, dst, r, k, w)
	h.bwPool.Put(w)
}

// applyWork holds one in-flight apply's buffers: per-level packed quotient
// and smoothing vectors.
type applyWork struct {
	rq, xq, tmp, tmp2 [][]float64 // per level, [Count·k] / [n·k]
}

func growBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// elemGrain is the minimum per-chunk float count for the elementwise sweeps
// below; below it par.For degrades to one sequential call.
const elemGrain = 8192

// blockElemGrain scales the elementwise sweep grain by the block width so a
// chunk touches roughly the same number of floats at every width.
func blockElemGrain(k int) int {
	g := elemGrain / k
	if g < 512 {
		g = 512
	}
	return g
}

// omega is the damped-Jacobi smoothing weight of the V-cycle.
const omega = 0.5

// applyLevel runs the cycle from level down.
func (h *Hierarchy) applyLevel(level int, dst, r []float64, k int, w *applyWork) {
	if level == len(h.levels) {
		// Coarse direct solve, all k columns through one pass over the
		// Cholesky factor. The dense solver owns internal scratch, so it
		// runs under the hierarchy's coarse lock.
		h.coarseMu.Lock()
		h.coarse.SolveBlock(dst, r, k)
		h.coarseMu.Unlock()
		return
	}
	l := h.levels[level]
	n := l.G.N()
	grain := blockElemGrain(k)
	rq := growBuf(&w.rq[level], l.D.Count*k)
	xq := growBuf(&w.xq[level], l.D.Count*k)
	if l.smooth == 0 {
		// Pure Steiner recursion: dst = D⁻¹r + R·coarse(Rᵀr).
		restrictBlock(l, r, k, rq)
		h.applyLevel(level+1, xq, rq, k, w)
		par.For(n, grain, func(lo, hi int) { prolongSweep(l, dst, r, xq, k, lo, hi) })
		return
	}
	// Symmetric V-cycle: damped-Jacobi pre-smooth (from zero), coarse
	// correction, damped-Jacobi post-smooth. ω = 1/2 keeps I − ωD⁻¹A PSD
	// since λmax(D⁻¹A) ≤ 2, so the cycle is SPD. The elementwise sweeps are
	// row-independent and fan out across cores alongside the parallel
	// matvec.
	x := dst
	tmp := growBuf(&w.tmp[level], n*k)
	tmp2 := growBuf(&w.tmp2[level], n*k)
	par.For(n, grain, func(lo, hi int) { jacobiSweep(l, x, r, nil, k, lo, hi) })
	for s := 1; s < l.smooth; s++ {
		l.G.LapMulBlock(tmp, x, k)
		par.For(n, grain, func(lo, hi int) { jacobiSweep(l, x, r, tmp, k, lo, hi) })
	}
	l.G.LapMulBlockResidual(tmp, r, x, k)
	restrictBlock(l, tmp, k, rq)
	h.applyLevel(level+1, xq, rq, k, w)
	par.For(n, grain, func(lo, hi int) { prolongSweep(l, x, nil, xq, k, lo, hi) })
	for s := 0; s < l.smooth; s++ {
		l.G.LapMulBlock(tmp2, x, k)
		par.For(n, grain, func(lo, hi int) { jacobiSweep(l, x, r, tmp2, k, lo, hi) })
	}
}

// The elementwise sweeps below cover vertices [lo, hi) of a packed width-k
// block. Each has a width-1 loop over plain slices: the general form's
// per-vertex column loop costs more than the element it computes at k = 1.

// jacobiSweep is damped Jacobi: x = ω·D⁻¹·r when ax is nil (the pre-smooth
// from zero), else x += ω·D⁻¹·(r − ax) with ax = A·x.
func jacobiSweep(l *Level, x, r, ax []float64, k, lo, hi int) {
	if k == 1 {
		d, x, r := l.dInv[lo:hi], x[lo:hi], r[lo:hi]
		r = r[:len(x)]
		if ax == nil {
			for v, dv := range d {
				x[v] = omega * dv * r[v]
			}
			return
		}
		ax = ax[lo:hi]
		for v, dv := range d {
			x[v] += omega * dv * (r[v] - ax[v])
		}
		return
	}
	for v := lo; v < hi; v++ {
		od := omega * l.dInv[v]
		xv := x[v*k : v*k+k : v*k+k]
		rv := r[v*k : v*k+k : v*k+k]
		if ax == nil {
			for j := range xv {
				xv[j] = od * rv[j]
			}
			continue
		}
		av := ax[v*k : v*k+k : v*k+k]
		for j := range xv {
			xv[j] += od * (rv[j] - av[j])
		}
	}
}

// prolongSweep adds the coarse correction, x += R·xq, or with r non-nil
// sets x = D⁻¹·r + R·xq (the pure Steiner step).
func prolongSweep(l *Level, x, r, xq []float64, k, lo, hi int) {
	assign := l.D.Assign
	if k == 1 {
		a, x := assign[lo:hi], x[lo:hi]
		a = a[:len(x)]
		if r == nil {
			for v, c := range a {
				x[v] += xq[c]
			}
			return
		}
		d, r := l.dInv[lo:hi], r[lo:hi]
		for v, c := range a {
			x[v] = r[v]*d[v] + xq[c]
		}
		return
	}
	for v := lo; v < hi; v++ {
		q := xq[assign[v]*k : assign[v]*k+k : assign[v]*k+k]
		xv := x[v*k : v*k+k : v*k+k]
		if r == nil {
			for j := range xv {
				xv[j] += q[j]
			}
			continue
		}
		dv := l.dInv[v]
		rv := r[v*k : v*k+k : v*k+k]
		for j := range xv {
			xv[j] = rv[j]*dv + q[j]
		}
	}
}

// restrictBlock computes rq = Rᵀr per column: each cluster sums its members'
// packed rows in the fixed cluster-sorted order, so the result does not
// depend on how clusters are chunked across workers. The width-1 form
// accumulates in a local; a slice accumulator would store and reload per
// member.
func restrictBlock(l *Level, r []float64, k int, rq []float64) {
	grain := 512 / k
	if grain < 8 {
		grain = 8
	}
	par.For(l.D.Count, grain, func(lo, hi int) {
		if k == 1 {
			for c := lo; c < hi; c++ {
				acc := 0.0
				for _, v := range l.order[l.start[c]:l.start[c+1]] {
					acc += r[v]
				}
				rq[c] = acc
			}
			return
		}
		for c := lo; c < hi; c++ {
			acc := rq[c*k : c*k+k : c*k+k]
			for j := range acc {
				acc[j] = 0
			}
			for _, v := range l.order[l.start[c]:l.start[c+1]] {
				rv := r[v*k:]
				for j := range acc {
					acc[j] += rv[j]
				}
			}
		}
	})
}
