// Package resist computes effective resistances of weighted graphs —
// R_eff(u, v) = (e_u − e_v)ᵀ A⁺ (e_u − e_v) — via the library's own
// preconditioned solvers. Effective resistance is the electrical quantity
// behind edge stretch, leverage scores, and spectral sparsification, and it
// certifies preconditioner solves end-to-end: the series/parallel laws give
// exact ground truth.
package resist

import (
	"context"
	"fmt"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/solver"
)

// Computer answers effective-resistance queries over one graph. It is a
// solver.Engine session under the hood: the multilevel Steiner
// preconditioner and every work buffer are shared across queries, so after
// the first solve a query allocates nothing. Not safe for concurrent use.
type Computer struct {
	g     *graph.Graph
	eng   *solver.Engine
	b     []float64
	total solver.Metrics
}

// New prepares a computer for the connected graph g. A disconnected graph
// returns an error wrapping graph.ErrDisconnected.
func New(g *graph.Graph) (*Computer, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("resist: %w", graph.ErrDisconnected)
	}
	h, err := hierarchy.NewCtx(context.TODO(), g, hierarchy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	opt := solver.DefaultOptions()
	opt.Tol = 1e-10
	eng, err := solver.NewLapEngine(g, h, opt)
	if err != nil {
		return nil, err
	}
	return &Computer{g: g, eng: eng, b: make([]float64, g.N())}, nil
}

// BetweenCtx returns R_eff(u, v): inject one unit of current at u, extract
// it at v, and read the potential difference. A context cancelled mid-solve
// aborts the underlying PCG within one iteration-check interval.
func (c *Computer) BetweenCtx(ctx context.Context, u, v int) (float64, error) {
	n := c.g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, fmt.Errorf("resist: vertex out of range: %w", graph.ErrBadDimension)
	}
	if u == v {
		return 0, nil
	}
	c.b[u], c.b[v] = 1, -1
	res, err := c.eng.Solve(ctx, c.b)
	c.b[u], c.b[v] = 0, 0
	c.accumulate(res.Metrics)
	if err != nil {
		return 0, err
	}
	if res.Outcome == solver.OutcomeCancelled {
		return 0, fmt.Errorf("resist: solve cancelled after %d iterations: %w", res.Iterations, ctx.Err())
	}
	if !res.Converged {
		return 0, fmt.Errorf("resist: %d iterations: %w", res.Iterations, solver.ErrNotConverged)
	}
	return res.X[u] - res.X[v], nil
}

// EdgeLeveragesCtx returns, for every edge (in g.Edges() order), the
// leverage score w(e)·R_eff(e) ∈ (0, 1] — the sampling probability weight
// of spectral sparsification and the "importance" of the edge. The scores
// of a connected graph sum to n − 1 (Foster's theorem), which the tests
// check. Cancellation is honored between (and within) the per-edge solves.
func (c *Computer) EdgeLeveragesCtx(ctx context.Context) ([]float64, error) {
	es := c.g.Edges()
	out := make([]float64, len(es))
	for i, e := range es {
		r, err := c.BetweenCtx(ctx, e.U, e.V)
		if err != nil {
			return nil, err
		}
		out[i] = e.W * r
	}
	return out, nil
}

// Metrics returns the cumulative solve metrics over every query answered so
// far: total matvecs, preconditioner applies, iterations, and wall time.
func (c *Computer) Metrics() solver.Metrics { return c.total }

func (c *Computer) accumulate(m solver.Metrics) {
	c.total.MatVecs += m.MatVecs
	c.total.PrecondApplies += m.PrecondApplies
	c.total.Iterations += m.Iterations
	c.total.SetupTime += m.SetupTime
	c.total.IterTime += m.IterTime
	c.total.TotalTime += m.TotalTime
	c.total.ScratchAllocs += m.ScratchAllocs
	c.total.FinalResidual = m.FinalResidual
}
