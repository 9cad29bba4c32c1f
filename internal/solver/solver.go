// Package solver provides conjugate gradients, preconditioned conjugate
// gradients with residual histories (the instrument behind Figure 6),
// Chebyshev iteration, and spectrum estimation from PCG coefficients (the
// Lanczos connection used to measure condition numbers κ(A, B) throughout
// the experiments).
//
// There is one PCG implementation (block.go): it solves k right-hand sides
// as a packed [n][k] block, and a single vector is the width-1 block, so
// PCG, PCGCtx, BlockPCGCtx and the Engine solves all run the same iteration
// on the same level-1 kernels (blockkernels.go) and block-aware operators.
// Every reduction uses a chunk partition fixed by (n, k), so a solve of any
// width is bit-identical at any GOMAXPROCS. The loops thread a
// context.Context for cancellation and report per-column Metrics. The
// Engine type (engine.go) owns reusable work buffers so repeated solves on
// one operator allocate nothing.
//
// # Numerical guardrails
//
// Every iteration is watched by three guards: a non-finite guard (a NaN or
// Inf residual terminates with OutcomeBreakdown instead of iterating on
// garbage), a divergence guard (residual exceeding DivergenceTol·‖b‖
// terminates with OutcomeDiverged, PETSc's dtol idea), and an optional
// stagnation guard (no relative progress over a sliding window terminates
// with OutcomeStagnated). A failed solve carries the tripped guard's
// explanation in Result.Reason. Options.Recovery adds PETSc-style
// restart-on-breakdown: after a breakdown/divergence/stagnation a column
// restarts from its current iterate (discarding the Krylov space, keeping
// the solution progress) up to MaxRestarts times.
//
// Panics raised inside the iteration — including panics recovered from
// parallel workers by internal/par — are converted to returned errors, so a
// solve can fail but never crash the process.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"hcd/internal/dense"
	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// ErrNotConverged marks solves that exhausted their iteration budget before
// reaching the requested tolerance. Callers should test with errors.Is.
var ErrNotConverged = errors.New("solver: did not converge")

// ErrEngineBusy marks overlapping Solve calls on one Engine, which is
// documented as not concurrency-safe: the second call returns this error
// instead of silently corrupting the shared work buffers. Run one Engine
// per goroutine.
var ErrEngineBusy = errors.New("solver: engine already in use")

// Operator is a symmetric positive (semi)definite linear operator.
type Operator interface {
	Dim() int
	Apply(dst, x []float64)
}

// Preconditioner applies an approximate inverse of an Operator.
type Preconditioner interface {
	Dim() int
	Apply(dst, r []float64)
}

// OpFunc adapts a function to the Operator and Preconditioner interfaces.
type OpFunc struct {
	N int
	F func(dst, x []float64)
}

// Dim returns the operator dimension.
func (o OpFunc) Dim() int { return o.N }

// Apply evaluates the wrapped function.
func (o OpFunc) Apply(dst, x []float64) { o.F(dst, x) }

// lapOperator wraps a graph Laplacian; it implements BlockApplier so block
// solves stream the CSR once for all k columns.
type lapOperator struct{ g *graph.Graph }

func (o lapOperator) Dim() int                           { return o.g.N() }
func (o lapOperator) Apply(dst, x []float64)             { o.g.LapMul(dst, x) }
func (o lapOperator) ApplyBlock(dst, x []float64, k int) { o.g.LapMulBlock(dst, x, k) }

// LapOperator wraps a graph Laplacian as an Operator. The matvec is
// row-blocked over the CSR and runs across cores (see graph.LapMul); it also
// implements BlockApplier for multi-RHS block solves (graph.LapMulBlock).
func LapOperator(g *graph.Graph) Operator {
	return lapOperator{g}
}

// identity implements the trivial preconditioner for both scalar and block
// applies (a packed block copies the same way a vector does).
type identity struct{ n int }

func (p identity) Dim() int                           { return p.n }
func (p identity) Apply(dst, r []float64)             { copy(dst, r) }
func (p identity) ApplyBlock(dst, r []float64, k int) { copy(dst, r) }

// Identity is the trivial preconditioner (PCG degenerates to CG).
func Identity(n int) Preconditioner {
	return identity{n}
}

// jacobi is the diagonal preconditioner; the block apply scales each packed
// row by the same 1/d[v], one diagonal load per vertex for all k columns.
type jacobi struct{ d []float64 }

func (p jacobi) Dim() int { return len(p.d) }

func (p jacobi) Apply(dst, r []float64) {
	for i := range dst {
		if p.d[i] > 0 {
			dst[i] = r[i] / p.d[i]
		} else {
			dst[i] = r[i]
		}
	}
}

func (p jacobi) ApplyBlock(dst, r []float64, k int) {
	for v := range p.d {
		row := dst[v*k : v*k+k]
		src := r[v*k : v*k+k]
		if d := p.d[v]; d > 0 {
			for j := range row {
				row[j] = src[j] / d
			}
		} else {
			copy(row, src)
		}
	}
}

// Jacobi returns the diagonal preconditioner D⁻¹ for the graph Laplacian.
// Vertices with zero volume (isolated) pass through unchanged.
func Jacobi(g *graph.Graph) Preconditioner {
	return jacobi{d: g.Volumes()}
}

// RecoveryPolicy configures restart-on-breakdown. After a recoverable
// failure (OutcomeBreakdown, OutcomeDiverged, OutcomeStagnated) a column
// restarts from its current iterate: the accumulated solution is kept, the
// Krylov space is discarded, and the residual is recomputed as b − A·x
// (a non-finite iterate is reset to zero first). In a block solve the
// columns that failed recoverably restart together as one warm block once
// every column's attempt has finished; the others keep their results. Each
// restart gets a fresh MaxIter budget, so a fully exhausted solve may run up
// to (1+MaxRestarts)·MaxIter iterations.
type RecoveryPolicy struct {
	// MaxRestarts is the number of restarts attempted after recoverable
	// failures; 0 (the default) disables recovery entirely.
	MaxRestarts int
	// Backoff is the wait before each restart, doubling per restart; the
	// wait aborts promptly when the context is cancelled. Zero restarts
	// immediately — the right setting for in-memory operators; nonzero is
	// for operators backed by flaky external resources.
	Backoff time.Duration
}

// Options controls the iteration.
type Options struct {
	Tol         float64 // relative residual tolerance (default 1e-8)
	MaxIter     int     // default 10·n
	ProjectMean bool    // keep iterates ⊥ 1 (for singular Laplacian systems)
	// CheckEvery is the cancellation-check interval: the iteration loop
	// polls ctx.Done() every CheckEvery iterations (default 8), so a
	// cancelled solve returns within one interval.
	CheckEvery int
	// Progress, when non-nil, is invoked after every iteration with the
	// iteration number (1-based) and the current residual norm. It runs on
	// the solve goroutine; keep it cheap.
	Progress func(iter int, residual float64)
	// Observer, when non-nil, receives the same per-iteration stream as
	// Progress through the obs.IterationObserver interface — the streaming
	// alternative to the post-hoc Residuals copy. Compose several with
	// obs.MultiObserver (e.g. a live writer plus a registry histogram plus
	// a trace counter series). It runs on the solve goroutine; keep it
	// cheap.
	Observer obs.IterationObserver

	// DivergenceTol is the divergence guard: the solve stops with
	// OutcomeDiverged when ‖r‖ exceeds DivergenceTol·‖b‖. Zero selects the
	// default 1e8; a negative value disables the guard. (The non-finite
	// guard — NaN/Inf residuals terminate with OutcomeBreakdown — is always
	// on: no useful iteration survives a non-finite residual.)
	DivergenceTol float64
	// StagnationWindow enables the stagnation guard: the solve stops with
	// OutcomeStagnated when the residual fails to improve by a relative
	// StagnationEps over the last StagnationWindow iterations. Zero (the
	// default) disables the guard — plain CG legitimately plateaus before
	// superlinear convergence kicks in, so stagnation detection is opt-in.
	StagnationWindow int
	// StagnationEps is the minimum relative improvement the window must
	// show; default 1e-3 when StagnationWindow > 0.
	StagnationEps float64
	// Recovery is the restart-on-breakdown policy; the zero value disables
	// restarts (historical behavior).
	Recovery RecoveryPolicy
}

// DefaultOptions returns the standard Laplacian-solve settings.
func DefaultOptions() Options {
	return Options{Tol: 1e-8, MaxIter: 0, ProjectMean: true}
}

// Outcome classifies how a solve terminated.
type Outcome int

const (
	// OutcomeUnknown is the zero value; no solve has been run.
	OutcomeUnknown Outcome = iota
	// OutcomeConverged: the residual reached the requested tolerance.
	OutcomeConverged
	// OutcomeMaxIter: the iteration budget was exhausted first.
	OutcomeMaxIter
	// OutcomeCancelled: the context was cancelled or its deadline passed.
	OutcomeCancelled
	// OutcomeBreakdown: a numerical breakdown stopped the recurrence
	// (non-positive curvature pᵀAp or rᵀz — often an exact solution
	// reached, or an indefinite/mismatched preconditioner — or a
	// non-finite residual).
	OutcomeBreakdown
	// OutcomeDiverged: the residual grew past the divergence guard
	// (Options.DivergenceTol).
	OutcomeDiverged
	// OutcomeStagnated: the residual made no progress over the stagnation
	// window (Options.StagnationWindow).
	OutcomeStagnated
)

// String names the outcome for logs and metrics output.
func (o Outcome) String() string {
	switch o {
	case OutcomeConverged:
		return "converged"
	case OutcomeMaxIter:
		return "max-iterations"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeBreakdown:
		return "breakdown"
	case OutcomeDiverged:
		return "diverged"
	case OutcomeStagnated:
		return "stagnated"
	default:
		return "unknown"
	}
}

// recoverable reports whether a restart can make progress after this
// outcome: breakdowns, divergence and stagnation restart from the current
// iterate; exhausted budgets and cancellations do not.
func recoverable(o Outcome) bool {
	return o == OutcomeBreakdown || o == OutcomeDiverged || o == OutcomeStagnated
}

// Metrics instruments one solve: operator/preconditioner work counts, wall
// time per phase, and the final residual. Every Result carries one.
type Metrics struct {
	MatVecs        int // operator Apply count
	PrecondApplies int // preconditioner Apply count
	Iterations     int
	FinalResidual  float64       // ‖r‖₂ at exit (after projection)
	SetupTime      time.Duration // buffer setup + initial residual/precondition
	IterTime       time.Duration // the iteration loop
	TotalTime      time.Duration
	// ScratchAllocs counts work buffers newly allocated for this solve.
	// It is zero for every solve on a warmed-up Engine.
	ScratchAllocs int
	// Restarts counts recovery restarts taken under Options.Recovery.
	Restarts int
}

// Result reports a completed solve.
type Result struct {
	X          []float64
	Residuals  []float64 // ‖r_i‖₂ for i = 0..Iterations
	Iterations int
	Converged  bool    // Outcome == OutcomeConverged
	Outcome    Outcome // how the iteration terminated
	// Reason explains a guard-terminated solve (which guard tripped, at
	// which iteration, with what values); empty on convergence.
	Reason  string
	Metrics Metrics
	// Alphas and Betas are the PCG coefficients; they define a Lanczos
	// tridiagonal whose eigenvalues estimate the spectrum of M⁻¹A (see
	// SpectrumEstimate). After a recovery restart they cover the final
	// attempt only (a restart discards the Krylov space).
	Alphas, Betas []float64
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// PCGCtx solves A·x = b with preconditioned conjugate gradients (plain CG
// with m = Identity). For singular Laplacian operators set opt.ProjectMean
// so the right-hand side and iterates stay orthogonal to the constant
// vector. The iteration loop polls ctx every opt.CheckEvery iterations and
// returns OutcomeCancelled promptly when the context is done. Size
// mismatches return an error wrapping graph.ErrBadDimension.
func PCGCtx(ctx context.Context, a Operator, m Preconditioner, b []float64, opt Options) (Result, error) {
	var s scratch
	return s.solve1(ctx, a, m, b, opt)
}

// annotateSolveSpan stamps the termination summary of the columns cols onto
// a solve span: the full summary for one column, the width and the longest
// iteration count for a block. The nil-span fast path keeps the
// disabled-tracing case free of the boxing allocations the Arg calls would
// otherwise perform.
func annotateSolveSpan(sp *obs.Span, results []Result, cols []int) {
	if sp == nil || len(results) == 0 {
		return
	}
	if len(cols) == 1 {
		annotateResult(sp, &results[cols[0]])
		return
	}
	iters := 0
	for _, j := range cols {
		iters = max(iters, results[j].Iterations)
	}
	sp.Arg("k", len(cols))
	sp.Arg("iterations", iters)
}

func annotateResult(sp *obs.Span, res *Result) {
	if sp == nil {
		return
	}
	sp.Arg("outcome", res.Outcome.String())
	sp.Arg("iterations", res.Iterations)
	sp.Arg("matvecs", res.Metrics.MatVecs)
	sp.Arg("final_residual", res.Metrics.FinalResidual)
	if res.Metrics.Restarts > 0 {
		sp.Arg("restarts", res.Metrics.Restarts)
	}
	if res.Reason != "" {
		sp.Arg("reason", res.Reason)
	}
}

// finite reports whether every entry of x is finite. Only runs on the rare
// restart path, so a serial scan is fine.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ChebyshevCtx runs Chebyshev iteration for A·x = b given bounds
// [lmin, lmax] on the spectrum of M⁻¹A. It needs no inner products, making
// it the classical communication-free companion to the parallel
// preconditioners of Section 3.1.
//
// opt.MaxIter is the iteration count; when opt.Tol > 0 the loop exits early
// once ‖r‖ ≤ Tol·‖r₀‖ (the per-iteration residual norm is instrumentation —
// the recurrence itself stays inner-product-free). Outcome is
// OutcomeConverged when the final residual meets Tol, OutcomeMaxIter when the
// budget ran out first, OutcomeCancelled on context cancellation,
// OutcomeBreakdown on a non-finite residual, OutcomeDiverged past the
// divergence guard (wrong eigenvalue bounds make Chebyshev diverge
// geometrically, so the guard matters here even more than for PCG).
func ChebyshevCtx(ctx context.Context, a Operator, m Preconditioner, b []float64, lmin, lmax float64, opt Options) (Result, error) {
	var s scratch
	return chebyshevCore(ctx, a, m, b, lmin, lmax, opt, &s)
}

// chebyshevCore runs the iteration on width-1 blocks through the same
// level-1 kernels as PCG. The residual follows the recurrence
// r −= α·A·p, the fused update PCG uses, rather than being recomputed as
// b − A·x; both cost one matvec per iteration.
func chebyshevCore(ctx context.Context, a Operator, m Preconditioner, b []float64, lmin, lmax float64, opt Options, s *scratch) (res Result, err error) {
	ctx, sp := obs.StartSpan(ctx, "solve/chebyshev")
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("solver: panic during solve: %w", par.AsError(v))
		}
		annotateResult(sp, &res)
		sp.End()
		if reg := obs.RegistryFrom(ctx); reg != nil {
			res.Metrics.Publish(reg)
			publishOutcome(reg, "chebyshev", res.Outcome)
		}
	}()
	start := time.Now()
	if !(lmin > 0) || !(lmax >= lmin) {
		return Result{}, fmt.Errorf("solver: invalid eigenvalue bounds [%v, %v]", lmin, lmax)
	}
	n := a.Dim()
	if len(b) != n {
		return Result{}, fmt.Errorf("solver: rhs length %d vs operator dimension %d: %w", len(b), n, graph.ErrBadDimension)
	}
	if m == nil {
		m = Identity(n)
	}
	if m.Dim() != n {
		return Result{}, fmt.Errorf("solver: preconditioner dimension %d vs operator dimension %d: %w", m.Dim(), n, graph.ErrBadDimension)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.CheckEvery <= 0 {
		opt.CheckEvery = 8
	}
	divTol := opt.DivergenceTol
	if divTol == 0 {
		divTol = 1e8
	}
	startAllocs := s.allocs
	x := s.col(&s.xcols, 0, n)
	zero(x)
	r := s.vec(&s.r, n)
	copy(r, b)
	z := s.vec(&s.z, n)
	p := s.vec(&s.p, n)
	zero(p) // β = 0 on the first step makes p = z + β·p a copy
	ap := s.vec(&s.ap, n)
	alpha := s.vec(&s.alpha, 1)
	beta := s.vec(&s.beta, 1)
	rn := s.vec(&s.rn, 1)
	s.projectedNorms(r, n, 1, opt.ProjectMean, rn)
	theta := (lmax + lmin) / 2
	delta := (lmax - lmin) / 2
	res = Result{X: x}
	res.Residuals = append(s.col(&s.resid, 0, 0), rn[0])
	res.Alphas, res.Betas = s.col(&s.alphas, 0, 0), s.col(&s.betas, 0, 0)
	normB := rn[0]
	res.Outcome = OutcomeMaxIter
	iterStart := time.Now()
	for k := 0; k < opt.MaxIter; k++ {
		if k%opt.CheckEvery == 0 && ctx.Err() != nil {
			res.Outcome = OutcomeCancelled
			break
		}
		m.Apply(z, r)
		res.Metrics.PrecondApplies++
		if opt.ProjectMean {
			s.projectMean(z, n, 1)
		}
		switch k {
		case 0:
			beta[0] = 0
			alpha[0] = 1 / theta
		case 1:
			beta[0] = 0.5 * (delta * alpha[0]) * (delta * alpha[0])
			alpha[0] = 1 / (theta - beta[0]/alpha[0])
		default:
			beta[0] = (delta * alpha[0] / 2) * (delta * alpha[0] / 2)
			alpha[0] = 1 / (theta - beta[0]/alpha[0])
		}
		s.blockXPBY(p, z, beta, n, 1)
		a.Apply(ap, p)
		res.Metrics.MatVecs++
		if faultinject.Enabled() && faultinject.Fire(faultinject.MatvecNaN) {
			ap[0] = math.NaN()
		}
		s.updateXR(x, r, p, ap, alpha, n, 1, opt.ProjectMean, rn)
		res.Residuals = append(res.Residuals, rn[0])
		res.Iterations = k + 1
		if opt.Progress != nil {
			opt.Progress(res.Iterations, rn[0])
		}
		if opt.Observer != nil {
			opt.Observer.ObserveIteration(res.Iterations, rn[0])
		}
		if v := rn[0]; math.IsNaN(v) || math.IsInf(v, 0) {
			res.Outcome = OutcomeBreakdown
			res.Reason = fmt.Sprintf("non-finite residual ‖r‖ = %g at iteration %d", v, res.Iterations)
			break
		}
		if opt.Tol > 0 && rn[0] <= opt.Tol*normB {
			res.Outcome = OutcomeConverged
			break
		}
		if divTol > 0 && rn[0] > divTol*normB {
			res.Outcome = OutcomeDiverged
			res.Reason = fmt.Sprintf("residual ‖r‖ = %g exceeded %g·‖r₀‖ = %g at iteration %d",
				rn[0], divTol, divTol*normB, res.Iterations)
			break
		}
	}
	now := time.Now()
	res.Metrics.IterTime = now.Sub(iterStart)
	res.Metrics.TotalTime = now.Sub(start)
	res.Metrics.SetupTime = res.Metrics.TotalTime - res.Metrics.IterTime
	res.Metrics.Iterations = res.Iterations
	res.Metrics.FinalResidual = res.Residuals[len(res.Residuals)-1]
	res.Metrics.ScratchAllocs = s.allocs - startAllocs
	res.Converged = res.Outcome == OutcomeConverged
	s.resid[0], s.alphas[0], s.betas[0] = res.Residuals, res.Alphas, res.Betas
	return res, nil
}

// SpectrumEstimate converts PCG coefficients into estimates of the extreme
// generalized eigenvalues of (A, M): the Lanczos tridiagonal built from the
// α and β sequences has eigenvalues (Ritz values) inside the spectrum of
// M⁻¹A that converge to its extremes. Returns (λmin, λmax).
func SpectrumEstimate(alphas, betas []float64) (float64, float64, error) {
	k := len(alphas)
	if k == 0 {
		return 0, 0, fmt.Errorf("solver: no PCG coefficients")
	}
	d := make([]float64, k)
	e := make([]float64, k-1)
	for j := 0; j < k; j++ {
		d[j] = 1 / alphas[j]
		if j > 0 {
			d[j] += betas[j-1] / alphas[j-1]
		}
	}
	for j := 0; j+1 < k; j++ {
		e[j] = math.Sqrt(betas[j]) / alphas[j]
	}
	vals, err := dense.TridiagEig(d, e)
	if err != nil {
		return 0, 0, err
	}
	return vals[0], vals[len(vals)-1], nil
}

// ConditionEstimate runs PCG on a random ±-mean-free right-hand side and
// returns the estimated condition number κ(M⁻¹A) = λmax/λmin. The rhs
// argument supplies the probe vector (it will be mean-projected).
func ConditionEstimate(a Operator, m Preconditioner, probe []float64, iters int) (float64, error) {
	opt := Options{Tol: 1e-14, MaxIter: iters, ProjectMean: true}
	res, err := PCGCtx(context.TODO(), a, m, probe, opt)
	if err != nil {
		return 0, err
	}
	lmin, lmax, err := SpectrumEstimate(res.Alphas, res.Betas)
	if err != nil {
		return 0, err
	}
	if lmin <= 0 {
		return math.Inf(1), nil
	}
	return lmax / lmin, nil
}
