package hcd_test

// Tests for the solve engine API: context entry points, sentinel errors,
// engine sessions, Chebyshev options, and per-solve metrics.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hcd"
)

func TestSentinelErrors(t *testing.T) {
	// NewGraph: out-of-range endpoint and negative vertex count.
	if _, err := hcd.NewGraph(3, []hcd.Edge{{U: 0, V: 7, W: 1}}); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("out-of-range edge: %v, want ErrBadDimension", err)
	}
	if _, err := hcd.NewGraph(-1, nil); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("negative n: %v, want ErrBadDimension", err)
	}
	// NewResistanceComputer requires a connected graph.
	g, err := hcd.NewGraph(4, []hcd.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hcd.NewResistanceComputer(g); !errors.Is(err, hcd.ErrDisconnected) {
		t.Errorf("disconnected graph: %v, want ErrDisconnected", err)
	}
	// Solve paths reject mismatched right-hand sides.
	conn := hcd.Grid2D(5, 5, nil, 1)
	if _, err := hcd.SolvePCGCtx(context.Background(), conn, make([]float64, 7),
		hcd.JacobiPreconditioner(conn), hcd.DefaultSolveOptions()); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("short rhs: %v, want ErrBadDimension", err)
	}
	if _, err := hcd.NewEngine(conn, hcd.JacobiPreconditioner(hcd.Grid2D(3, 3, nil, 1)),
		hcd.DefaultSolveOptions()); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("mismatched preconditioner: %v, want ErrBadDimension", err)
	}
}

// TestSolveCtxMatchesSolve: the batteries-included solve is the solve it
// documents — a default multilevel hierarchy plus PCG at the default
// options, to the same iteration count — converges, and reports its
// metrics.
func TestSolveCtxMatchesSolve(t *testing.T) {
	g := hcd.OCT3D(6, 6, 6, hcd.DefaultOCTOptions())
	rng := rand.New(rand.NewSource(31))
	b := meanFree(rng, g.N())
	res, err := hcd.SolveCtx(context.Background(), g, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != hcd.OutcomeConverged || !res.Converged {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.Metrics.MatVecs == 0 || res.Metrics.PrecondApplies == 0 || res.Metrics.TotalTime <= 0 {
		t.Errorf("hierarchy-preconditioned solve metrics not populated: %+v", res.Metrics)
	}
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions())
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := hcd.SolvePCGCtx(context.Background(), g, b, h, hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Iterations != res.Iterations {
		t.Errorf("explicit hierarchy solve took %d iterations, SolveCtx %d", explicit.Iterations, res.Iterations)
	}
}

func TestSolveCtxCancelled(t *testing.T) {
	g := hcd.Grid2D(20, 20, hcd.LognormalWeights(1), 2)
	rng := rand.New(rand.NewSource(32))
	b := meanFree(rng, g.N())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := hcd.SolvePCGCtx(ctx, g, b, hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != hcd.OutcomeCancelled {
		t.Errorf("outcome %v, want OutcomeCancelled", res.Outcome)
	}
}

func TestHierarchyEngineBatchedSolves(t *testing.T) {
	g := hcd.OCT3D(6, 6, 6, hcd.DefaultOCTOptions())
	eng, err := hcd.NewHierarchyEngine(g, hcd.DefaultHierarchyOptions(), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	for k := 0; k < 3; k++ {
		b := meanFree(rng, g.N())
		res, err := eng.Solve(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("batched solve %d: %v after %d iterations", k, res.Outcome, res.Iterations)
		}
		if k > 0 && res.Metrics.ScratchAllocs != 0 {
			t.Errorf("batched solve %d allocated %d buffers", k, res.Metrics.ScratchAllocs)
		}
	}
}

func TestSolveChebyshevCtxReportsSpectrum(t *testing.T) {
	g := hcd.Grid2D(12, 12, hcd.LognormalWeights(1), 1)
	rng := rand.New(rand.NewSource(34))
	b := meanFree(rng, g.N())
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 1})
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hcd.SolveChebyshevCtx(context.Background(), g, b, p, hcd.DefaultChebyshevOptions(80))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Lmin > 0) || !(res.Lmax >= res.Lmin) {
		t.Errorf("spectrum estimate [%v, %v] not populated", res.Lmin, res.Lmax)
	}
	if res.Metrics.MatVecs == 0 || res.ProbeMetrics.MatVecs == 0 {
		t.Errorf("metrics not populated: iter %+v probe %+v", res.Metrics, res.ProbeMetrics)
	}
	if res.Residuals[len(res.Residuals)-1] > res.Residuals[0]*1e-5 {
		t.Errorf("residual %v of initial %v", res.Residuals[len(res.Residuals)-1], res.Residuals[0])
	}
	// Custom widening + early exit.
	opt := hcd.ChebyshevOptions{Iters: 400, ProbeIters: 30, WidenLow: 0.7, WidenHigh: 1.3, Tol: 1e-6}
	res2, err := hcd.SolveChebyshevCtx(context.Background(), g, b, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != hcd.OutcomeConverged {
		t.Errorf("early-exit run: %v after %d iterations", res2.Outcome, res2.Iterations)
	}
	if res2.Iterations >= 400 {
		t.Errorf("early exit did not trigger (%d iterations)", res2.Iterations)
	}
}
