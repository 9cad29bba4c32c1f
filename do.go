package hcd

// The canonical solve entry point. Do executes one SolveRequest — one or
// many right-hand sides, a named iteration method, a preconditioner given as
// a spec, a prebuilt value, or a warm Engine session — and returns a
// SolveResponse with one SolveResult per right-hand side. The
// single-right-hand-side entry points (SolveCtx, SolvePCGCtx,
// SolveChebyshevCtx, SolveResilient) are thin wrappers over Do, so the CLI
// tools and the hcd-server handlers share one implementation.

import (
	"context"
	"errors"
	"fmt"

	"hcd/internal/obs"
	"hcd/internal/solver"
)

// SolveMethod names the iteration a SolveRequest runs.
type SolveMethod string

// Solve methods. The empty string defaults to PCG.
const (
	// SolveMethodPCG is preconditioned conjugate gradients — the default.
	SolveMethodPCG SolveMethod = "pcg"
	// SolveMethodChebyshev bootstraps spectrum bounds from a short PCG
	// probe on the first right-hand side, then runs inner-product-free
	// Chebyshev iteration on every right-hand side with the shared bounds.
	SolveMethodChebyshev SolveMethod = "chebyshev"
	// SolveMethodResilient walks the SolveResilient fallback ladder per
	// right-hand side, recording a ResilienceReport for each.
	SolveMethodResilient SolveMethod = "resilient"
)

// PrecondKind names a preconditioner construction for PrecondSpec.
type PrecondKind string

// Preconditioner kinds. The empty string defaults to the multilevel
// hierarchy — the batteries-included choice.
const (
	PrecondHierarchy PrecondKind = "hierarchy"
	PrecondNone      PrecondKind = "none"
	PrecondJacobi    PrecondKind = "jacobi"
	PrecondSteiner   PrecondKind = "steiner"
	PrecondTree      PrecondKind = "tree"
	PrecondSubgraph  PrecondKind = "subgraph"
)

// PrecondSpec describes a preconditioner to build for a solve. The zero
// value selects the default multilevel Steiner hierarchy.
type PrecondSpec struct {
	Kind PrecondKind
	// SizeCap is the cluster size cap for the steiner and hierarchy kinds
	// (0 selects the default, 4).
	SizeCap int
	// Seed drives the randomized constructions (0 selects the default, 1).
	Seed int64
	// Base selects the spanning tree for the tree and subgraph kinds.
	Base BaseTree
	// ExtraFraction is the subgraph kind's off-tree edge budget as a
	// fraction of n (0 selects the default, 0.25).
	ExtraFraction float64
	// Shards splits the clustering builds of the steiner and hierarchy
	// kinds into that many concurrent vertex-range shards (see
	// DecomposeOptions.Shards). 0 or 1 builds single-pass. Ignored when
	// Hierarchy is set — its own Shards field governs.
	Shards int
	// Hierarchy, when non-nil, fully configures the hierarchy kind and
	// overrides SizeCap/Seed/Shards.
	Hierarchy *HierarchyOptions
}

// NewPreconditioner builds the preconditioner a spec describes. PrecondNone
// returns (nil, nil): a nil Preconditioner means plain CG everywhere in this
// package. The context cancels hierarchy and clustering builds.
func NewPreconditioner(ctx context.Context, g *Graph, spec PrecondSpec) (Preconditioner, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch spec.Kind {
	case PrecondNone:
		return nil, nil
	case PrecondJacobi:
		return JacobiPreconditioner(g), nil
	case PrecondSteiner:
		res, err := DecomposeCtx(ctx, g, DecomposeOptions{
			Method: MethodFixedDegree, SizeCap: specSizeCap(spec), Seed: specSeed(spec),
			Shards: spec.Shards, SkipReport: true,
		})
		if err != nil {
			return nil, err
		}
		return NewSteinerPreconditioner(res.D)
	case PrecondTree:
		return NewTreePreconditioner(g, spec.Base, specSeed(spec))
	case PrecondSubgraph:
		popt := PlanarOptions{Base: spec.Base, ExtraFraction: spec.ExtraFraction, Seed: specSeed(spec)}
		if popt.ExtraFraction <= 0 {
			popt.ExtraFraction = DefaultPlanarOptions().ExtraFraction
		}
		res, err := NewSubgraphPreconditioner(g, popt, g.N())
		if err != nil {
			return nil, err
		}
		return res.P, nil
	case PrecondHierarchy, "":
		opt := DefaultHierarchyOptions()
		if spec.Hierarchy != nil {
			opt = *spec.Hierarchy
		} else {
			if spec.SizeCap >= 2 {
				opt.SizeCap = spec.SizeCap
			}
			if spec.Seed != 0 {
				opt.Seed = spec.Seed
			}
			opt.Shards = spec.Shards
		}
		return NewHierarchyCtx(ctx, g, opt)
	default:
		return nil, fmt.Errorf("hcd: unknown preconditioner kind %q: %w", spec.Kind, ErrInvalidInput)
	}
}

func specSizeCap(spec PrecondSpec) int {
	if spec.SizeCap >= 2 {
		return spec.SizeCap
	}
	return DefaultHierarchyOptions().SizeCap
}

func specSeed(spec PrecondSpec) int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return 1
}

// SolveRequest is the canonical description of one solve: one or more
// right-hand sides against a single graph Laplacian, an iteration method,
// and a preconditioner. Exactly one of the preconditioner fields is
// consulted, in order of precedence: Engine (a warm session whose operator
// and preconditioner are already built), M (a prebuilt Preconditioner
// value), then Precond (a spec built on demand by Do).
type SolveRequest struct {
	// B holds the right-hand sides, one solve each, all of length g.N().
	B [][]float64
	// Method selects the iteration ("" = PCG).
	Method SolveMethod
	// Precond describes the preconditioner to build when neither Engine
	// nor M is set. The zero value builds the multilevel hierarchy.
	Precond PrecondSpec
	// M, when non-nil, is used directly and Precond is ignored.
	M Preconditioner
	// Engine, when non-nil, runs the solves on a warm session (the
	// serving path: per-hierarchy engine pools). Result slices are copied
	// out of the engine's buffers, so they remain valid after the engine
	// is reused. Ignored by SolveMethodResilient, whose ladder builds its
	// own preconditioners.
	Engine *Engine
	// Options configures the PCG iteration (and the Chebyshev method's
	// probe inherits its ProjectMean).
	Options SolveOptions
	// Chebyshev configures SolveMethodChebyshev (Iters is required).
	Chebyshev ChebyshevOptions
	// Resilience configures SolveMethodResilient (zero value = defaults).
	Resilience ResilienceOptions
}

// SolveResponse reports one Do call: per-right-hand-side results plus the
// method-specific extras.
type SolveResponse struct {
	// Results holds one SolveResult per right-hand side, in request order.
	// On error it still contains one entry per attempted column — completed
	// columns keep their results, failed columns carry zero-value entries —
	// so a partially failed batch loses nothing that finished.
	Results []SolveResult
	// Lmin, Lmax are the Chebyshev method's Ritz spectrum estimates from
	// the bootstrap probe, before widening.
	Lmin, Lmax float64
	// ProbeMetrics instruments the Chebyshev bootstrap probe.
	ProbeMetrics SolveMetrics
	// Resilience holds one attempt-trail report per right-hand side for
	// the resilient method.
	Resilience []ResilienceReport
}

// Do executes a SolveRequest against g's Laplacian and returns one result
// per right-hand side. It is the single solve implementation behind every
// wrapper in this package and behind the hcd-server solve handlers.
//
// Errors follow the wrapped-sentinel convention: dimension mismatches wrap
// ErrBadDimension, exhausted ladders wrap ErrNotConverged, a cancelled
// context surfaces via the per-result OutcomeCancelled (PCG/Chebyshev) or a
// wrapped context error (resilient). Column lengths are checked before any
// preconditioner is built: a resilient request with a malformed column, or
// a request with no well-formed column, fails at once with ErrBadDimension.
// A multi-RHS PCG or Chebyshev request attempts every well-formed column
// even when another fails: the response carries a result per column (zero
// for a malformed one) and the error joins the per-column failures
// (errors.Is still matches the wrapped sentinels through the join).
func Do(ctx context.Context, g *Graph, req SolveRequest) (*SolveResponse, error) {
	resp := &SolveResponse{}
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return resp, fmt.Errorf("hcd: Do: nil graph: %w", ErrInvalidInput)
	}
	if len(req.B) == 0 {
		return resp, fmt.Errorf("hcd: Do: no right-hand sides: %w", ErrInvalidInput)
	}
	method := req.Method
	if method == "" {
		method = SolveMethodPCG
	}
	// Column lengths are checked before any preconditioner is built or any
	// rung runs. PCG and Chebyshev still attempt the well-formed columns
	// (each malformed one gets a zero result and joins the error); the
	// resilient ladder, and a request with no well-formed column, stop here.
	var dimErrs []error
	for i, b := range req.B {
		if len(b) != g.N() {
			dimErrs = append(dimErrs, fmt.Errorf("rhs %d: length %d vs graph dimension %d: %w", i, len(b), g.N(), ErrBadDimension))
		}
	}
	if len(dimErrs) > 0 && (method == SolveMethodResilient || len(dimErrs) == len(req.B)) {
		return resp, errors.Join(dimErrs...)
	}
	// The resilient ladder opens its own root span per RHS
	// ("resilient/solve"); wrapping it here would only add a level.
	if method != SolveMethodResilient {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, "solve/do")
		defer sp.End()
		if sp != nil {
			sp.Arg("method", string(method))
			sp.Arg("rhs", len(req.B))
		}
	}
	switch method {
	case SolveMethodPCG:
		return doPCG(ctx, g, req, resp, dimErrs)
	case SolveMethodChebyshev:
		return doChebyshev(ctx, g, req, resp, dimErrs)
	case SolveMethodResilient:
		for _, b := range req.B {
			res, rep, err := solveResilient(ctx, g, b, req.Resilience)
			resp.Results = append(resp.Results, res)
			resp.Resilience = append(resp.Resilience, rep)
			if err != nil {
				return resp, err
			}
		}
		return resp, nil
	default:
		return resp, fmt.Errorf("hcd: Do: unknown solve method %q: %w", req.Method, ErrInvalidInput)
	}
}

// doPCG solves the well-formed columns of req; errs holds the malformed
// columns' errors, which the returned error joins.
func doPCG(ctx context.Context, g *Graph, req SolveRequest, resp *SolveResponse, errs []error) (*SolveResponse, error) {
	m := req.M
	if m == nil && req.Engine == nil {
		var err error
		m, err = NewPreconditioner(ctx, g, req.Precond)
		if err != nil {
			return resp, err
		}
	}
	// The well-formed columns run as one block solve: every matvec and
	// preconditioner traversal is shared across them, converged columns
	// deflate out of the active block, and under Options.Recovery the
	// columns that break down restart together (see solver.BlockPCGCtx). A
	// malformed column keeps a zero-value result.
	resp.Results = make([]SolveResult, len(req.B))
	var bs [][]float64
	var idx []int
	for i, b := range req.B {
		if len(b) == g.N() {
			bs = append(bs, b)
			idx = append(idx, i)
		}
	}
	var results []SolveResult
	var err error
	if req.Engine != nil {
		results, err = req.Engine.SolveBlock(ctx, bs, req.Options)
	} else {
		results, err = solver.BlockPCGCtx(ctx, solver.LapOperator(g), m, bs, req.Options)
	}
	for c, res := range results {
		if req.Engine != nil {
			res = detachResult(res)
		}
		resp.Results[idx[c]] = res
	}
	return resp, errors.Join(append(errs, err)...)
}

// doChebyshev probes the spectrum on the first well-formed column of req
// and iterates on every well-formed column; errs holds the malformed
// columns' errors, which the returned error joins.
func doChebyshev(ctx context.Context, g *Graph, req SolveRequest, resp *SolveResponse, errs []error) (*SolveResponse, error) {
	opt := req.Chebyshev
	if opt.Iters <= 0 {
		return resp, fmt.Errorf("hcd: ChebyshevOptions.Iters must be positive: %w", ErrInvalidInput)
	}
	if opt.ProbeIters <= 0 {
		opt.ProbeIters = 40
	}
	if opt.WidenLow <= 0 {
		opt.WidenLow = 0.8
	}
	if opt.WidenHigh <= 0 {
		opt.WidenHigh = 1.2
	}
	m := req.M
	if m == nil && req.Engine == nil {
		var err error
		m, err = NewPreconditioner(ctx, g, req.Precond)
		if err != nil {
			return resp, err
		}
	}
	a := solver.LapOperator(g)
	probeOpt := solver.Options{Tol: 1e-12, MaxIter: opt.ProbeIters, ProjectMean: true}
	first := 0
	for len(req.B[first]) != g.N() {
		first++
	}
	var probe SolveResult
	var err error
	if req.Engine != nil {
		probe, err = req.Engine.SolveWith(ctx, req.B[first], probeOpt)
	} else {
		probe, err = solver.PCGCtx(ctx, a, m, req.B[first], probeOpt)
	}
	if err != nil {
		return resp, err
	}
	if probe.Outcome == OutcomeCancelled {
		resp.Results = append(resp.Results, detachResult(probe))
		resp.ProbeMetrics = probe.Metrics
		return resp, fmt.Errorf("hcd: chebyshev probe cancelled: %w", ctx.Err())
	}
	lmin, lmax, err := solver.SpectrumEstimate(probe.Alphas, probe.Betas)
	if err != nil {
		return resp, err
	}
	resp.Lmin, resp.Lmax, resp.ProbeMetrics = lmin, lmax, probe.Metrics
	iterOpt := solver.Options{MaxIter: opt.Iters, ProjectMean: true, Tol: opt.Tol, Observer: opt.Observer}
	for i, b := range req.B {
		var res SolveResult
		if len(b) != g.N() {
			resp.Results = append(resp.Results, res)
			continue
		}
		if req.Engine != nil {
			res, err = req.Engine.SolveChebyshev(ctx, b, lmin*opt.WidenLow, lmax*opt.WidenHigh, iterOpt)
			res = detachResult(res)
		} else {
			res, err = solver.ChebyshevCtx(ctx, a, m, b, lmin*opt.WidenLow, lmax*opt.WidenHigh, iterOpt)
		}
		resp.Results = append(resp.Results, res)
		if err != nil {
			errs = append(errs, fmt.Errorf("rhs %d: %w", i, err))
		}
	}
	return resp, errors.Join(errs...)
}

// detachResult copies the slices of an engine-produced result out of the
// engine's reusable buffers, so the result survives the engine's return to a
// pool and its next solve.
func detachResult(res SolveResult) SolveResult {
	res.X = append([]float64(nil), res.X...)
	res.Residuals = append([]float64(nil), res.Residuals...)
	res.Alphas = append([]float64(nil), res.Alphas...)
	res.Betas = append([]float64(nil), res.Betas...)
	return res
}
