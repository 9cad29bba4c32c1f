package main

// Per-layer measurement from outside the program: timers wrapped around the
// operator and preconditioner an Engine is given, a replay of the
// hierarchy's level loop with the same exported calls, and bytes moved
// computed from array sizes (labelled computed: nothing here reads a
// hardware counter).

import (
	"context"
	"fmt"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
)

// layerSamples collects one value per operation for each per-layer metric;
// the run reports their medians.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerSamples) report(r *run) {
	for name, xs := range l {
		r.layers[name] = median(xs)
	}
}

// blockOp is what both the Laplacian operator and the hierarchy provide:
// the scalar apply and the packed multi-column apply the block solver uses.
type blockOp interface {
	Dim() int
	Apply(dst, x []float64)
	ApplyBlock(dst, x []float64, k int)
}

// timedOp wraps an operator or preconditioner given to solver.NewEngine and
// accumulates its calls, columns and busy time. It forwards ApplyBlock, so
// a block solve stays on the block path.
type timedOp struct {
	inner       blockOp
	calls, cols int
	busy        time.Duration
}

func (t *timedOp) Dim() int { return t.inner.Dim() }

func (t *timedOp) Apply(dst, x []float64) {
	s := time.Now()
	t.inner.Apply(dst, x)
	t.busy += time.Since(s)
	t.calls++
	t.cols++
}

func (t *timedOp) ApplyBlock(dst, x []float64, k int) {
	s := time.Now()
	t.inner.ApplyBlock(dst, x, k)
	t.busy += time.Since(s)
	t.calls++
	t.cols += k
}

func (t *timedOp) reset() { t.calls, t.cols, t.busy = 0, 0, 0 }

// levelShape is one clustering level of a replayed hierarchy build.
type levelShape struct {
	n, clusters int
	csr         int64 // bytes of the level graph's CSR arrays
}

// levelReplay is a hierarchy build redone step by step with the exported
// calls the hierarchy makes: decomp.FixedDegreeCtx, Graph.Contract and
// dense.NewPinnedLaplacian.
type levelReplay struct {
	levels           []levelShape
	sizes            []int // vertex counts down the levels, coarsest last
	coarseN          int
	cluster0         time.Duration // level-0 clustering of the input graph
	contract, factor time.Duration
	coarseSolve      time.Duration // median of coarseSolveReps solves
}

const coarseSolveReps = 21

// replayLevels mirrors the level loop of hierarchy.NewCtx for unsharded
// options, timing each call, then times PinnedLaplacian.Solve on the
// coarsest graph.
func replayLevels(ctx context.Context, g *hcd.Graph, opt hcd.HierarchyOptions) (*levelReplay, error) {
	if opt.Shards > 1 {
		return nil, fmt.Errorf("replay covers unsharded builds only")
	}
	rep := &levelReplay{}
	cur := g
	for level := 0; cur.N() > opt.DirectLimit && level < opt.MaxLevels; level++ {
		t := time.Now()
		d, err := decomp.FixedDegreeCtx(ctx, cur, opt.SizeCap, opt.Seed+int64(level))
		if err != nil {
			return nil, err
		}
		if level == 0 {
			rep.cluster0 = time.Since(t)
		}
		if d.Count >= cur.N() {
			break
		}
		rep.levels = append(rep.levels, levelShape{n: cur.N(), clusters: d.Count, csr: csrBytes(cur)})
		rep.sizes = append(rep.sizes, cur.N())
		t = time.Now()
		cur = cur.Contract(d.Assign, d.Count)
		rep.contract += time.Since(t)
	}
	n := cur.N()
	rep.coarseN = n
	rep.sizes = append(rep.sizes, n)
	t := time.Now()
	comp, ncomp := cur.Components()
	pin, err := dense.NewPinnedLaplacian(dense.FromRowMajor(n, n, cur.LapDense()), comp, ncomp)
	if err != nil {
		return nil, err
	}
	rep.factor = time.Since(t)
	b := cli.MeanFreeRHS(n, 1)
	x := make([]float64, n)
	var solves []float64
	for i := 0; i < coarseSolveReps; i++ {
		t := time.Now()
		pin.Solve(x, b)
		solves = append(solves, float64(time.Since(t)))
	}
	rep.coarseSolve = time.Duration(median(solves))
	return rep, nil
}

// add records the replay's layer metrics. withCluster also records the
// level-0 clustering, for workloads that do not run DecomposeCtx.
func (rep *levelReplay) add(lay layerSamples, withCluster bool) {
	lay.add("graph.contract_ms", ms(rep.contract))
	lay.add("dense.coarse_n", float64(rep.coarseN))
	lay.add("dense.factor_ms", ms(rep.factor))
	lay.add("dense.coarse_solve_us", float64(rep.coarseSolve)/float64(time.Microsecond))
	lay.add("hierarchy.levels", float64(len(rep.sizes)))
	lay.add("hierarchy.bytes", float64(rep.vcycleBytes()))
	if withCluster {
		lay.add("decomp.cluster_ms", ms(rep.cluster0))
		if len(rep.levels) > 0 {
			lay.add("decomp.clusters", float64(rep.levels[0].clusters))
		}
	}
}

// csrBytes is the size of the CSR arrays a Laplacian matvec streams, from
// the graph's own array lengths.
func csrBytes(g *graph.Graph) int64 {
	off, adj, w := g.CSR()
	return 8 * int64(len(off)+len(adj)+len(w))
}

// lapMulBytes is the computed traffic of one Laplacian matvec over k packed
// columns: the CSR arrays once, one read of x and one write of dst.
func lapMulBytes(csr int64, n, k int) int64 {
	return csr + 16*int64(n)*int64(k)
}

// vcycleBytes is the computed traffic of one hierarchy Apply on one column
// with the default single smoothing sweep: per level two matvecs on the
// level graph plus 17 n-length vector passes (pre-smooth 3, residual 3,
// restriction 2, prolongation 4, post-smooth 5) and the quotient write; at
// the bottom the dense coarse solve reads its n² factor once.
func (rep *levelReplay) vcycleBytes() int64 {
	var b int64
	for _, l := range rep.levels {
		b += 2*lapMulBytes(l.csr, l.n, 1) + 8*(17*int64(l.n)+int64(l.clusters))
	}
	return b + 8*int64(rep.coarseN)*int64(rep.coarseN)
}
