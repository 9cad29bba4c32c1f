package main

// The solve workloads: warm PCG on one prebuilt hierarchy. solve-k1 runs
// scalar Engine.Solve on grid3d:48 (the paper's Fig. 6 lognormal 3D grid),
// where LapMul, Hierarchy.Apply and the scalar level-1 kernels do nearly all
// the work. solve-k8 runs Engine.SolveBlock with 8 right-hand sides per
// request on femesh:300, an unstructured mesh, through the block twins of
// the same layers; a change that helps one path at the other's cost shows on
// one of the two.

import (
	"context"
	"fmt"
	"math"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/solver"
)

type solveWorkload struct {
	spec string
	k    int // right-hand sides per request
	// pool is how many seeded right-hand sides requests rotate through;
	// set-up solves each once for the reference iteration counts.
	pool int
}

func runSolveK1(r *run) error { return runSolve(r, solveWorkload{spec: "grid3d:48", k: 1, pool: 4}) }
func runSolveK8(r *run) error { return runSolve(r, solveWorkload{spec: "femesh:300", k: 8, pool: 10}) }

// solveSession is one set-up's state: the graph, its hierarchy, the
// right-hand sides and the iteration count each must take.
type solveSession struct {
	w     solveWorkload
	g     *hcd.Graph
	h     *hcd.Hierarchy
	opt   solver.Options
	rhs   [][]float64
	iters []int
	// matvecs is each pool entry's operator applications in the reference
	// solve, one of the counts that must repeat exactly.
	matvecs []int
	// request scratch, reused so the timed loop allocates nothing itself
	bs [][]float64
	js []int
}

// columns fills s.bs with request i's right-hand sides: a window of k
// consecutive pool entries starting at i, so successive requests differ.
func (s *solveSession) columns(i int) [][]float64 {
	s.bs, s.js = s.bs[:0], s.js[:0]
	for c := 0; c < s.w.k; c++ {
		j := (i + c) % len(s.rhs)
		s.bs = append(s.bs, s.rhs[j])
		s.js = append(s.js, j)
	}
	return s.bs
}

// solve runs request i on eng and returns its results and solve time.
func (s *solveSession) solve(ctx context.Context, eng *solver.Engine, i int) ([]solver.Result, time.Duration, error) {
	bs := s.columns(i)
	t := time.Now()
	if s.w.k == 1 {
		res, err := eng.Solve(ctx, bs[0])
		return []solver.Result{res}, time.Since(t), err
	}
	res, err := eng.SolveBlock(ctx, bs, s.opt)
	return res, time.Since(t), err
}

// check verifies each column of a request: converged, in the reference
// iteration count, and with a true residual ‖b − Lx‖/‖b‖ within the
// tolerance, recomputed with the serial reference matvec.
func (s *solveSession) check(res []solver.Result) error {
	if len(res) != len(s.js) {
		return fmt.Errorf("%d results for %d right-hand sides", len(res), len(s.js))
	}
	ax := make([]float64, s.g.N())
	for c, j := range s.js {
		x := res[c].X
		if !res[c].Converged {
			return fmt.Errorf("rhs %d: %s after %d iterations", j, res[c].Outcome, res[c].Iterations)
		}
		if s.iters != nil && res[c].Iterations != s.iters[j] {
			return fmt.Errorf("rhs %d: %d iterations, reference %d", j, res[c].Iterations, s.iters[j])
		}
		s.g.LapMulSerial(ax, x)
		b := s.rhs[j]
		num, den := 0.0, 0.0
		for v := range b {
			d := b[v] - ax[v]
			num += d * d
			den += b[v] * b[v]
		}
		if rel := math.Sqrt(num / den); !(rel <= s.opt.Tol) {
			return fmt.Errorf("rhs %d: true residual %.3g above tolerance %.3g", j, rel, s.opt.Tol)
		}
	}
	return nil
}

func newSolveSession(ctx context.Context, w solveWorkload, seed int64) (*solveSession, *solver.Engine, time.Duration, error) {
	g, err := cli.BuildGraph(w.spec, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	t := time.Now()
	h, err := hcd.NewHierarchyCtx(ctx, g, hcd.DefaultHierarchyOptions())
	if err != nil {
		return nil, nil, 0, err
	}
	build := time.Since(t)
	s := &solveSession{w: w, g: g, h: h, opt: solver.DefaultOptions()}
	for i := 0; i < w.pool; i++ {
		s.rhs = append(s.rhs, cli.MeanFreeRHS(g.N(), seed*1000+int64(i)))
	}
	eng, err := solver.NewEngine(solver.LapOperator(g), h, s.opt)
	if err != nil {
		return nil, nil, 0, err
	}
	// The reference: every pool entry solved once on the path requests take
	// (scalar one by one, or all columns as one block), which also warms
	// the engine's buffers.
	var ref []solver.Result
	if w.k == 1 {
		for i := range s.rhs {
			res, _, err := s.solve(ctx, eng, i)
			if err != nil {
				return nil, nil, 0, err
			}
			if err := s.check(res); err != nil {
				return nil, nil, 0, fmt.Errorf("reference solve: %w", err)
			}
			ref = append(ref, res[0])
		}
	} else {
		s.js = s.js[:0]
		for j := range s.rhs {
			s.js = append(s.js, j)
		}
		if ref, err = eng.SolveBlock(ctx, s.rhs, s.opt); err != nil {
			return nil, nil, 0, err
		}
		if err := s.check(ref); err != nil {
			return nil, nil, 0, fmt.Errorf("reference solve: %w", err)
		}
	}
	for _, res := range ref {
		s.iters = append(s.iters, res.Iterations)
		s.matvecs = append(s.matvecs, res.Metrics.MatVecs)
	}
	return s, eng, build, nil
}

func runSolve(r *run, w solveWorkload) error {
	ctx := context.Background()
	var s *solveSession
	var eng *solver.Engine
	var builds []float64
	err := r.setup(func() error {
		var err error
		var build time.Duration
		s, eng, build, err = newSolveSession(ctx, w, r.seed)
		builds = append(builds, ms(build))
		return err
	})
	if err != nil {
		return err
	}

	untracedFor, tracedFor := r.split()
	converged := 0
	op := func(eng *solver.Engine, i int) ([]solver.Result, time.Duration, error) {
		res, dt, err := s.solve(ctx, eng, i)
		if err == nil {
			err = s.check(res)
		}
		if err == nil {
			converged += len(res)
		}
		return res, dt, err
	}
	reqs := r.measure(untracedFor, func(i int) (time.Duration, error) {
		_, dt, err := op(eng, i)
		return dt, err
	})
	rate := float64(len(reqs)) / (sum(reqs) / 1000)
	r.notef("graph %s: n=%d m=%d, level sizes %v", w.spec, s.g.N(), s.g.M(), s.h.LevelSizes())
	r.notef("exact: iterations per pool rhs=%v matvecs=%v level_sizes=%v", s.iters, s.matvecs, s.h.LevelSizes())
	r.latency(fmt.Sprintf("requests of %d rhs", w.k), reqs)
	r.e2e.set("ops_per_s", "1/s", rate)
	r.named("solve_ms_p50", "ms", median(reqs))
	r.named("solve_ms_tail", "ms", quantile(reqs, tailQuantile(len(reqs))))
	r.named("rhs_per_s", "1/s", float64(converged)/(sum(reqs)/1000))
	if !r.trace {
		return nil
	}

	lay := layerSamples{}
	rep, err := replayLevels(ctx, s.g, hcd.DefaultHierarchyOptions())
	if err != nil {
		return err
	}
	rep.add(lay, true)
	a, ok := solver.LapOperator(s.g).(blockOp)
	if !ok {
		return fmt.Errorf("the Laplacian operator has no block apply")
	}
	opT, pcT := &timedOp{inner: a}, &timedOp{inner: s.h}
	engT, err := solver.NewEngine(opT, pcT, s.opt)
	if err != nil {
		return err
	}
	csr, n := csrBytes(s.g), s.g.N()
	traced := r.measure(tracedFor, func(i int) (time.Duration, error) {
		opT.reset()
		pcT.reset()
		res, dt, err := op(engT, i)
		if err != nil {
			return dt, err
		}
		iters, allocs := 0, 0
		for _, x := range res {
			iters += x.Iterations
			allocs = max(allocs, x.Metrics.ScratchAllocs)
		}
		lay.add("graph.lapmul_ms", ms(opT.busy))
		lay.add("graph.lapmul_calls", float64(opT.calls))
		lay.add("graph.lapmul_cols", float64(opT.cols))
		bytes := int64(opT.calls)*csr + 16*int64(n)*int64(opT.cols)
		lay.add("graph.lapmul_gbps_computed", float64(bytes)/float64(opT.busy))
		lay.add("hierarchy.apply_ms", ms(pcT.busy))
		lay.add("hierarchy.apply_calls", float64(pcT.calls))
		lay.add("solver.level1_ms", ms(dt-opT.busy-pcT.busy))
		lay.add("solver.iterations_per_rhs", float64(iters)/float64(len(res)))
		lay.add("solver.allocs_per_solve", float64(allocs))
		return dt, nil
	})
	r.overhead(float64(len(reqs))/sum(reqs), float64(len(traced))/sum(traced))
	lay.report(r)
	r.layers["hierarchy.build_ms"] = median(builds)
	r.workingSet(s.g.Bytes() + s.h.MemoryBytes() + 5*8*int64(n*w.k))
	return nil
}
