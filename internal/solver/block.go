package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// The PCG driver: one preconditioned-CG iteration running k right-hand sides
// at once, k = 1 included. Each column runs its own PCG recurrence — its own
// α, β, rz — but every matvec, preconditioner apply and level-1 kernel walks
// the packed [n][k] block in a single traversal, so the CSR matrix, the
// hierarchy quotients and the work vectors stream through memory once per
// iteration instead of once per column. On bandwidth-bound Laplacian solves
// that amortization is the whole win; per column the arithmetic is that of
// a single-vector solve.
//
// Columns converge (or fail) independently: a finished column's iterate is
// copied out and the packed block is left-compacted, so the active width
// shrinks and later iterations do proportionally less work (deflation).
//
// Options.Recovery restarts the columns that ended in a recoverable outcome
// together, as one compacted warm block (see RecoveryPolicy).

// BlockApplier is the optional fast path an Operator or Preconditioner can
// implement to apply itself to k packed row-major columns in one traversal
// (dst[v*k+j] = (A·x_j)[v]). Operators that don't implement it are applied
// column by column through staging vectors.
type BlockApplier interface {
	ApplyBlock(dst, x []float64, k int)
}

// applier is the shape Operator and Preconditioner share; the driver treats
// both uniformly.
type applier interface {
	Apply(dst, x []float64)
}

// scratch owns the work buffers of one solve. A fresh scratch per call gives
// allocate-per-solve behavior; an Engine keeps one alive so repeated solves
// reuse every buffer. The packed buffers are sized n·k and never shrunk, so
// a warmed scratch allocates nothing for any solve with the same or smaller
// n·k.
type scratch struct {
	x, r, z, p, ap []float64 // packed row-major [n][kActive]
	colIn, colOut  []float64 // column staging for non-block Apply fallback
	partial        []float64 // chunked-reduction partial table, [chunks][k]
	args           rowArgs   // operands of the running kernel

	// Per-active-position state, compacted alongside the packed buffers.
	rz, rzNew, refNorm         []float64
	pap, alpha, beta, mean, rn []float64
	rawNorm                    []float64
	active                     []int // active position -> original column
	dead                       []bool
	keep                       []int
	cols, retry                []int // an attempt's columns: all, then the recoverable ones

	// Per original column, reused across solves on one Engine.
	one     [1][]float64 // the right-hand side of a width-1 solve
	results []Result
	xcols   [][]float64
	resid   [][]float64
	alphas  [][]float64
	betas   [][]float64

	allocs int
}

// vec returns *buf resized to n, reusing capacity when possible.
func (s *scratch) vec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
		s.allocs++
	}
	*buf = (*buf)[:n]
	return *buf
}

// col returns the j-th per-column buffer resized to n.
func (s *scratch) col(bufs *[][]float64, j, n int) []float64 {
	for len(*bufs) <= j {
		*bufs = append(*bufs, nil)
	}
	if cap((*bufs)[j]) < n {
		(*bufs)[j] = make([]float64, n)
		s.allocs++
	}
	(*bufs)[j] = (*bufs)[j][:n]
	return (*bufs)[j]
}

// ints / bools mirror vec for the small index buffers.
func (s *scratch) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func (s *scratch) bools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// applyBlock applies op to the packed [n][kA] block: one fused traversal
// when op implements BlockApplier, otherwise column by column through the
// staging vectors. A width-1 block is a plain vector, so it goes straight
// through Apply.
func (s *scratch) applyBlock(op applier, dst, x []float64, n, kA int) {
	if kA == 1 {
		op.Apply(dst[:n], x[:n])
		return
	}
	if ba, ok := op.(BlockApplier); ok {
		ba.ApplyBlock(dst[:n*kA], x[:n*kA], kA)
		return
	}
	in := s.vec(&s.colIn, n)
	out := s.vec(&s.colOut, n)
	for j := 0; j < kA; j++ {
		for v := 0; v < n; v++ {
			in[v] = x[v*kA+j]
		}
		op.Apply(out, in)
		for v := 0; v < n; v++ {
			dst[v*kA+j] = out[v]
		}
	}
}

// BlockPCGCtx solves A·x_j = b_j for all columns of bs with block PCG and
// fresh work buffers, returning one Result per column (same order). A single
// right-hand side is the width-1 block, the same solve PCGCtx runs. See
// Engine.SolveBlock for the buffer-reusing form.
func BlockPCGCtx(ctx context.Context, a Operator, m Preconditioner, bs [][]float64, opt Options) ([]Result, error) {
	var s scratch
	return pcgCore(ctx, a, m, bs, opt, &s)
}

// solve1 runs pcgCore on the single right-hand side b: the width-1 entry
// behind PCGCtx and Engine.Solve.
func (s *scratch) solve1(ctx context.Context, a Operator, m Preconditioner, b []float64, opt Options) (Result, error) {
	s.one[0] = b
	results, err := pcgCore(ctx, a, m, s.one[:], opt, s)
	s.one[0] = nil
	if len(results) == 0 {
		return Result{}, err
	}
	return results[0], err
}

// pcgCore is the single PCG driver behind PCG, PCGCtx, CG, BlockPCGCtx and
// the Engine solves: one attempt over every column, then the
// Options.Recovery restarts. The returned slice and every Result slice alias
// the scratch buffers. A panic during the solve — including worker panics
// surfaced by internal/par — is returned as an error carrying the panicking
// goroutine's stack.
func pcgCore(ctx context.Context, a Operator, m Preconditioner, bs [][]float64, opt Options, s *scratch) (results []Result, err error) {
	ctx, sp := obs.StartSpan(ctx, "solve/pcg")
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("solver: panic during solve: %w", par.AsError(v))
		}
		annotateSolveSpan(sp, results, s.cols)
		sp.End()
		if err == nil {
			if reg := obs.RegistryFrom(ctx); reg != nil {
				for i := range results {
					results[i].Metrics.Publish(reg)
					publishOutcome(reg, "pcg", results[i].Outcome)
				}
			}
		}
	}()
	n := a.Dim()
	k := len(bs)
	if k == 0 {
		return nil, fmt.Errorf("solver: block solve with no right-hand sides: %w", graph.ErrBadDimension)
	}
	for j, b := range bs {
		if len(b) != n {
			return nil, fmt.Errorf("solver: rhs %d length %d vs operator dimension %d: %w", j, len(b), n, graph.ErrBadDimension)
		}
	}
	if m == nil {
		m = Identity(n)
	}
	if m.Dim() != n {
		return nil, fmt.Errorf("solver: preconditioner dimension %d vs operator dimension %d: %w", m.Dim(), n, graph.ErrBadDimension)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10*n + 50
	}
	if opt.CheckEvery <= 0 {
		opt.CheckEvery = 8
	}
	if opt.DivergenceTol == 0 {
		opt.DivergenceTol = 1e8
	}
	if opt.StagnationEps <= 0 {
		opt.StagnationEps = 1e-3
	}

	startAllocs := s.allocs
	if cap(s.results) < k {
		s.results = make([]Result, k)
		s.allocs++
	}
	results = s.results[:k]
	cols := s.ints(&s.cols, k)
	for j := range results {
		x := s.col(&s.xcols, j, n)
		zero(x)
		results[j] = Result{
			X:         x,
			Residuals: s.col(&s.resid, j, 0),
			Alphas:    s.col(&s.alphas, j, 0),
			Betas:     s.col(&s.betas, j, 0),
		}
		cols[j] = j
	}
	s.attempt(ctx, a, m, bs, cols, opt, false)

	// Recovery: the columns whose attempt ended recoverably restart together.
	// The rare path, so the backoff timer may allocate.
	backoff := opt.Recovery.Backoff
	for restart := 1; restart <= opt.Recovery.MaxRestarts; restart++ {
		retry := s.retry[:0]
		for j := range results {
			if recoverable(results[j].Outcome) {
				retry = append(retry, j)
			}
		}
		s.retry = retry
		if len(retry) == 0 {
			break
		}
		if backoff > 0 {
			if !sleepCtx(ctx, backoff) {
				for _, j := range retry {
					res := &results[j]
					res.Outcome = OutcomeCancelled
					res.Converged = false
					res.Reason = "cancelled during restart backoff after: " + res.Reason
				}
				break
			}
			backoff *= 2
		}
		for _, j := range retry {
			results[j].Metrics.Restarts = restart
		}
		s.attempt(ctx, a, m, bs, retry, opt, true)
	}

	scratchAllocs := s.allocs - startAllocs
	for j := range results {
		res := &results[j]
		// Scratch growth is a property of the shared traversal; every column
		// reports the solve-level value.
		res.Metrics.ScratchAllocs = scratchAllocs
		// Hand the (possibly grown) history buffers back for reuse.
		s.resid[j] = res.Residuals
		s.alphas[j] = res.Alphas
		s.betas[j] = res.Betas
	}
	return results, nil
}

// attempt runs one PCG attempt on the columns cols of bs (ascending original
// indices), packed into a block of width len(cols) that deflates as columns
// finish. Per column it appends to the residual history, adds to the
// metrics, and leaves the iterate in results[j].X.
//
// warm marks a recovery restart: each column resumes from its iterate in
// results[j].X (reset to zero only if non-finite), the residual is
// recomputed as b − A·x, its ‖r₀‖ sample is not recorded (it re-measures the
// iterate the previous attempt ended on), the coefficient histories restart,
// and convergence/divergence stay relative to the column's first ‖r₀‖, so a
// restart cannot weaken the termination criteria.
func (s *scratch) attempt(ctx context.Context, a Operator, m Preconditioner, bs [][]float64, cols []int, opt Options, warm bool) {
	_, sp := obs.StartSpan(ctx, "solve/attempt")
	defer sp.End()
	start := time.Now()
	results := s.results
	n := a.Dim()
	k := len(cols)
	nk := n * k
	x := s.vec(&s.x, nk)
	r := s.vec(&s.r, nk)
	z := s.vec(&s.z, nk)
	p := s.vec(&s.p, nk)
	ap := s.vec(&s.ap, nk)
	rawNorm := s.vec(&s.rawNorm, k)
	refNorm := s.vec(&s.refNorm, k)
	rz := s.vec(&s.rz, k)
	rzNew := s.vec(&s.rzNew, k)
	papv := s.vec(&s.pap, k)
	alpha := s.vec(&s.alpha, k)
	beta := s.vec(&s.beta, k)
	rn := s.vec(&s.rn, k)
	dead := s.bools(&s.dead, k)

	packColumns(r, bs, cols, n)
	if warm {
		for _, j := range cols {
			res := &results[j]
			if finite(res.X) {
				res.Metrics.MatVecs++
			} else {
				zero(res.X) // a non-finite iterate restarts from zero
			}
			res.Alphas, res.Betas, res.Reason = res.Alphas[:0], res.Betas[:0], ""
		}
		packColumns(x, s.xcols, cols, n)
		s.applyBlock(a, ap, x, n, k)
		for i := range r[:nk] {
			r[i] -= ap[i] // r = b − A·x: resume from the accumulated solution
		}
	} else {
		zero(x)
	}

	// ‖b‖ before projection, then project and measure again: a right-hand
	// side that is numerically all null-space component has nothing left to
	// solve.
	s.blockNormSq(r, n, k, rawNorm)
	sqrtAll(rawNorm)
	s.projectedNorms(r, n, k, opt.ProjectMean, rn)
	active := s.ints(&s.active, 0)
	keep := s.keep[:0]
	for pos, j := range cols {
		res := &results[j]
		normB := rn[pos]
		if warm {
			refNorm[pos] = res.Residuals[0]
		} else {
			refNorm[pos] = normB
			res.Residuals = append(res.Residuals, normB)
		}
		if normB == 0 || normB <= 1e-13*rawNorm[pos] || normB <= opt.Tol*refNorm[pos] {
			res.Outcome = OutcomeConverged
			continue
		}
		res.Outcome = OutcomeMaxIter
		active = append(active, j)
		keep = append(keep, pos)
	}
	s.active, s.keep = active, keep
	kA := len(active)
	if kA < k && kA > 0 {
		// Some columns are already solved: compact the block before the
		// first preconditioner apply. Their iterates are already in place.
		compactPacked(x, n, k, keep)
		compactPacked(r, n, k, keep)
		compactFlat(refNorm, keep)
	}
	iterStart := time.Time{}

	if kA > 0 {
		s.precondition(m, z, r, n, kA, opt.ProjectMean, rz)
		copy(p[:n*kA], z[:n*kA])
		iterStart = time.Now()

		for iter := 0; iter < opt.MaxIter; iter++ {
			if iter%opt.CheckEvery == 0 && ctx.Err() != nil {
				for _, j := range s.active {
					results[j].Outcome = OutcomeCancelled
				}
				break
			}
			s.applyBlock(a, ap, p, n, kA)
			for _, j := range s.active {
				results[j].Metrics.MatVecs++
			}
			if faultinject.Enabled() && faultinject.Fire(faultinject.MatvecNaN) {
				ap[0] = math.NaN()
			}
			s.blockDots(p, ap, n, kA, papv)
			if faultinject.Enabled() && faultinject.Fire(faultinject.ForceBreakdown) {
				papv[0] = -1
			}
			anyDead := false
			for pos := 0; pos < kA; pos++ {
				pap := papv[pos]
				dead[pos] = pap <= 0 || math.IsNaN(pap)
				if dead[pos] {
					// Numerical breakdown (or exact solution already reached).
					res := &results[s.active[pos]]
					res.Outcome = OutcomeBreakdown
					res.Reason = fmt.Sprintf("non-positive curvature pᵀAp = %g at iteration %d", pap, iter+1)
					anyDead = true
				}
			}
			if anyDead {
				if kA = s.deflate(results, n, kA, dead, papv); kA == 0 {
					break
				}
			}
			for pos := 0; pos < kA; pos++ {
				alpha[pos] = rz[pos] / papv[pos]
				res := &results[s.active[pos]]
				res.Alphas = append(res.Alphas, alpha[pos])
			}
			s.updateXR(x, r, p, ap, alpha, n, kA, opt.ProjectMean, rn)
			maxRn := 0.0
			for pos := 0; pos < kA; pos++ {
				if rn[pos] > maxRn || math.IsNaN(rn[pos]) {
					maxRn = rn[pos]
				}
			}
			anyDead = false
			for pos := 0; pos < kA; pos++ {
				res := &results[s.active[pos]]
				res.Residuals = append(res.Residuals, rn[pos])
				res.Iterations++
				dead[pos] = s.guard(res, rn[pos], refNorm[pos], iter+1, opt)
				anyDead = anyDead || dead[pos]
			}
			if opt.Progress != nil {
				opt.Progress(iter+1, maxRn)
			}
			if opt.Observer != nil {
				opt.Observer.ObserveIteration(iter+1, maxRn)
			}
			if anyDead {
				if kA = s.deflate(results, n, kA, dead); kA == 0 {
					break
				}
			}
			s.precondition(m, z, r, n, kA, opt.ProjectMean, rzNew)
			anyDead = false
			for pos := 0; pos < kA; pos++ {
				v := rzNew[pos]
				dead[pos] = v <= 0 || math.IsNaN(v)
				if dead[pos] {
					res := &results[s.active[pos]]
					res.Outcome = OutcomeBreakdown
					res.Reason = fmt.Sprintf("non-positive rᵀz = %g at iteration %d", v, res.Iterations)
					anyDead = true
				}
			}
			if anyDead {
				if kA = s.deflate(results, n, kA, dead, rzNew); kA == 0 {
					break
				}
			}
			for pos := 0; pos < kA; pos++ {
				beta[pos] = rzNew[pos] / rz[pos]
				res := &results[s.active[pos]]
				res.Betas = append(res.Betas, beta[pos])
			}
			s.blockXPBY(p, z, beta, n, kA)
			copy(rz[:kA], rzNew[:kA])
		}
	}

	// Columns still active (budget exhausted or cancelled) keep their current
	// iterate.
	for pos, j := range s.active {
		unpackColumn(results[j].X, x, kA, pos)
	}

	now := time.Now()
	total := now.Sub(start)
	iterDur := time.Duration(0)
	if !iterStart.IsZero() {
		iterDur = now.Sub(iterStart)
	}
	for _, j := range cols {
		res := &results[j]
		res.Converged = res.Outcome == OutcomeConverged
		res.Metrics.Iterations = res.Iterations
		res.Metrics.FinalResidual = res.Residuals[len(res.Residuals)-1]
		// Timing is a property of the shared block traversal; every column
		// adds the attempt-level values.
		res.Metrics.SetupTime += total - iterDur
		res.Metrics.IterTime += iterDur
		res.Metrics.TotalTime += total
	}
	annotateSolveSpan(sp, results, cols)
}

// precondition computes z = M·r for the packed width-kA block — projected
// onto the mean-free subspace when project is set — and rz[j] = r_jᵀz_j.
func (s *scratch) precondition(m Preconditioner, z, r []float64, n, kA int, project bool, rz []float64) {
	s.applyBlock(m, z, r, n, kA)
	for _, j := range s.active {
		s.results[j].Metrics.PrecondApplies++
	}
	if project {
		mean := s.vec(&s.mean, kA)
		s.blockColSums(z, n, kA, mean)
		divide(mean, n)
		s.blockSubMeanDot(z, r, n, kA, mean, rz)
	} else {
		s.blockDots(r, z, n, kA, rz)
	}
}

// guard applies the termination tests, in severity order, to a column whose
// residual norm after iteration iter is rn, and reports whether it stops.
// The non-finite check comes first: NaN compares false against every
// threshold, so the convergence and divergence tests would both silently
// pass over it. A plain method, not a closure: closures capturing the
// results would heap-allocate and break the Engine's zero-allocation
// guarantee.
func (s *scratch) guard(res *Result, rn, refNorm float64, iter int, opt Options) bool {
	switch {
	case math.IsNaN(rn) || math.IsInf(rn, 0):
		res.Outcome = OutcomeBreakdown
		res.Reason = fmt.Sprintf("non-finite residual ‖r‖ = %g at iteration %d", rn, res.Iterations)
	case rn <= opt.Tol*refNorm:
		res.Outcome = OutcomeConverged
	case opt.DivergenceTol > 0 && rn > opt.DivergenceTol*refNorm:
		res.Outcome = OutcomeDiverged
		res.Reason = fmt.Sprintf("residual ‖r‖ = %g exceeded %g·‖r₀‖ = %g at iteration %d",
			rn, opt.DivergenceTol, opt.DivergenceTol*refNorm, res.Iterations)
	default:
		w := opt.StagnationWindow
		if w <= 0 || iter < w {
			return false
		}
		ref := res.Residuals[len(res.Residuals)-1-w]
		if rn < (1-opt.StagnationEps)*ref {
			return false
		}
		res.Outcome = OutcomeStagnated
		res.Reason = fmt.Sprintf("residual improved < %g relative over the last %d iterations (‖r‖ %g → %g)",
			opt.StagnationEps, w, ref, rn)
	}
	return true
}

// deflate copies every dead column's iterate into its per-column solution
// buffer and left-compacts the packed block, the persistent per-position
// state (refNorm, rz) and any extra per-position arrays the caller is about
// to read (extras), then shrinks the active set. Returns the new width.
func (s *scratch) deflate(results []Result, n, kA int, dead []bool, extras ...[]float64) int {
	keep := s.keep[:0]
	for pos := 0; pos < kA; pos++ {
		if dead[pos] {
			unpackColumn(results[s.active[pos]].X, s.x, kA, pos)
		} else {
			keep = append(keep, pos)
		}
	}
	s.keep = keep
	newK := len(keep)
	if newK == kA {
		return kA
	}
	if newK > 0 {
		compactPacked(s.x, n, kA, keep)
		compactPacked(s.r, n, kA, keep)
		compactPacked(s.z, n, kA, keep)
		compactPacked(s.p, n, kA, keep)
		compactPacked(s.ap, n, kA, keep)
		compactFlat(s.refNorm, keep)
		compactFlat(s.rz, keep)
		for _, ex := range extras {
			compactFlat(ex, keep)
		}
	}
	act := s.active
	for idx, pos := range keep {
		act[idx] = act[pos]
	}
	s.active = act[:newK]
	return newK
}

// unpackColumn copies column pos of the packed width-kA block x into dst.
func unpackColumn(dst, x []float64, kA, pos int) {
	for v := range dst {
		dst[v] = x[v*kA+pos]
	}
}

// compactFlat left-compacts a per-position array to the kept positions.
func compactFlat(buf []float64, keep []int) {
	for idx, pos := range keep {
		buf[idx] = buf[pos]
	}
}

// sleepCtx waits for d and reports whether it elapsed before ctx was done.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
