package hcd

// The solve engine: context-aware entry points, reusable solve sessions,
// termination outcomes, and per-solve metrics. All solve paths (SolveCtx,
// SolvePCGCtx, SolveChebyshevCtx, Engine.Solve) converge on one
// PCG/Chebyshev implementation in internal/solver, whose level-1 kernels
// (dot, norm, axpy, mean projection) and Laplacian matvec run across cores
// with a serial fallback below a grain-size threshold.

import (
	"context"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/solver"
)

// Sentinel errors for the construction and solve paths. Callers should test
// with errors.Is instead of matching message strings.
var (
	// ErrDisconnected: the operation requires a connected graph
	// (e.g. NewResistanceComputer).
	ErrDisconnected = graph.ErrDisconnected
	// ErrBadDimension: vertex counts, edge endpoints, or vector lengths
	// disagree with the graph/operator dimension (NewGraph, SolvePCGCtx,
	// engine construction).
	ErrBadDimension = graph.ErrBadDimension
	// ErrNotConverged: an iterative solve exhausted its budget before
	// reaching tolerance.
	ErrNotConverged = solver.ErrNotConverged
	// ErrEngineBusy: two solves overlapped on one Engine, which is not
	// concurrency-safe; the second call fails instead of corrupting the
	// shared work buffers.
	ErrEngineBusy = solver.ErrEngineBusy
	// ErrInvalidInput: a caller-reachable precondition was violated
	// (out-of-range or duplicate vertices, a graph too large for exact
	// conductance enumeration, malformed input files).
	ErrInvalidInput = graph.ErrInvalidInput
)

// SolveOutcome classifies how a solve terminated: converged, iteration
// budget exhausted, cancelled via context, or numerical breakdown.
type SolveOutcome = solver.Outcome

// Solve outcomes.
const (
	OutcomeUnknown   = solver.OutcomeUnknown
	OutcomeConverged = solver.OutcomeConverged
	OutcomeMaxIter   = solver.OutcomeMaxIter
	OutcomeCancelled = solver.OutcomeCancelled
	OutcomeBreakdown = solver.OutcomeBreakdown
	OutcomeDiverged  = solver.OutcomeDiverged
	OutcomeStagnated = solver.OutcomeStagnated
)

// RecoveryPolicy configures restart-on-breakdown for a solve: after a
// recoverable failure (breakdown, divergence, stagnation) the iteration
// restarts from its current iterate up to MaxRestarts times, waiting
// Backoff (doubling per restart) in between. The zero value disables
// restarts. Set it via SolveOptions.Recovery.
type RecoveryPolicy = solver.RecoveryPolicy

// SolveMetrics instruments one solve: matvec and preconditioner-apply
// counts, iteration count, wall time per phase, scratch allocations, and the
// final residual. Every SolveResult carries one.
type SolveMetrics = solver.Metrics

// Engine is a reusable solve session over one graph: it owns the Laplacian
// operator, a preconditioner, and pooled work buffers, so repeated solves
// (batched right-hand sides, resistance queries) allocate nothing after the
// first. Results alias engine buffers until the next call; an Engine is not
// safe for concurrent use — run one Engine per goroutine.
type Engine = solver.Engine

// NewEngine builds a solve session for g with the given preconditioner
// (nil means unpreconditioned CG) and default options.
func NewEngine(g *Graph, m Preconditioner, opt SolveOptions) (*Engine, error) {
	return solver.NewLapEngine(g, m, opt)
}

// NewHierarchyEngine builds the batteries-included session: a multilevel
// Steiner preconditioner (the Remark 3 construction) plus a solve engine.
// This is the session form of SolveCtx.
func NewHierarchyEngine(g *Graph, hopt HierarchyOptions, opt SolveOptions) (*Engine, error) {
	h, err := hierarchy.NewCtx(context.TODO(), g, hopt)
	if err != nil {
		return nil, err
	}
	return solver.NewLapEngine(g, h, opt)
}

// SolvePCGCtx solves the Laplacian system A·x = b with preconditioned
// conjugate gradients under a context: cancellation or deadline expiry stops
// the iteration within one check interval (opt.CheckEvery, default 8
// iterations) with OutcomeCancelled. Dimension mismatches return an error
// wrapping ErrBadDimension. A nil m runs plain CG. This is a thin wrapper
// over Do with a single right-hand side.
func SolvePCGCtx(ctx context.Context, g *Graph, b []float64, m Preconditioner, opt SolveOptions) (SolveResult, error) {
	req := SolveRequest{B: [][]float64{b}, Method: SolveMethodPCG, M: m, Options: opt}
	if m == nil {
		req.Precond.Kind = PrecondNone
	}
	resp, err := Do(ctx, g, req)
	var res SolveResult
	if len(resp.Results) > 0 {
		res = resp.Results[len(resp.Results)-1]
	}
	return res, err
}

// SolveCtx is the batteries-included context-aware entry point: it builds a
// multilevel Steiner preconditioner and runs PCG to the default tolerance —
// Do with the zero-value PrecondSpec. For repeated solves on one graph build
// a NewHierarchyEngine instead, which amortizes both the preconditioner and
// the work buffers.
func SolveCtx(ctx context.Context, g *Graph, b []float64) (SolveResult, error) {
	resp, err := Do(ctx, g, SolveRequest{B: [][]float64{b}, Options: solver.DefaultOptions()})
	var res SolveResult
	if len(resp.Results) > 0 {
		res = resp.Results[len(resp.Results)-1]
	}
	return res, err
}

// ChebyshevOptions configures SolveChebyshevCtx: the bootstrap PCG probe
// that estimates the spectrum of M⁻¹A, the Ritz-bracket widening applied to
// the estimate (Ritz values sit strictly inside the true spectrum), and the
// Chebyshev iteration itself.
type ChebyshevOptions struct {
	Iters      int     // Chebyshev iteration count (required > 0)
	ProbeIters int     // PCG probe depth for the spectrum estimate (default 40)
	WidenLow   float64 // multiplier on the λmin estimate (default 0.8)
	WidenHigh  float64 // multiplier on the λmax estimate (default 1.2)
	Tol        float64 // optional early-exit tolerance (0 = run all Iters)
	// Observer, when non-nil, receives the Chebyshev iteration's residual
	// norms as they are computed (the bootstrap probe is not streamed).
	Observer IterationObserver
}

// DefaultChebyshevOptions returns the historical settings: a 40-iteration
// probe and the 0.8/1.2 bracket widening.
func DefaultChebyshevOptions(iters int) ChebyshevOptions {
	return ChebyshevOptions{Iters: iters, ProbeIters: 40, WidenLow: 0.8, WidenHigh: 1.2}
}

// ChebyshevResult is a SolveResult plus the spectrum estimate the iteration
// was bootstrapped from.
type ChebyshevResult struct {
	SolveResult
	// Lmin, Lmax are the probe's Ritz estimates of the extreme eigenvalues
	// of M⁻¹A, before widening. The iteration used
	// [WidenLow·Lmin, WidenHigh·Lmax].
	Lmin, Lmax float64
	// ProbeMetrics instruments the bootstrap PCG probe; the embedded
	// SolveResult.Metrics covers the Chebyshev iteration itself.
	ProbeMetrics SolveMetrics
}

// SolveChebyshevCtx solves A·x = b by Chebyshev iteration — the
// inner-product-free companion of the parallel preconditioners (no
// reductions across workers per step). It bootstraps eigenvalue bounds for
// M⁻¹A from a short PCG probe, widens the Ritz bracket per opt, and
// iterates under ctx. This is a thin wrapper over Do with
// SolveMethodChebyshev and a single right-hand side.
func SolveChebyshevCtx(ctx context.Context, g *Graph, b []float64, m Preconditioner, opt ChebyshevOptions) (ChebyshevResult, error) {
	req := SolveRequest{B: [][]float64{b}, Method: SolveMethodChebyshev, M: m, Chebyshev: opt}
	if m == nil {
		req.Precond.Kind = PrecondNone
	}
	resp, err := Do(ctx, g, req)
	if err != nil {
		if len(resp.Results) > 0 {
			// The cancelled-probe case: the probe result travels back so
			// the caller can inspect the partial solve.
			return ChebyshevResult{SolveResult: resp.Results[0], ProbeMetrics: resp.ProbeMetrics}, err
		}
		return ChebyshevResult{}, err
	}
	return ChebyshevResult{
		SolveResult: resp.Results[0],
		Lmin:        resp.Lmin, Lmax: resp.Lmax,
		ProbeMetrics: resp.ProbeMetrics,
	}, nil
}
