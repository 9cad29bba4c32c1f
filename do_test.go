package hcd_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hcd"
)

// TestDoMultiRHS: one request, several right-hand sides, one preconditioner
// build shared across them.
func TestDoMultiRHS(t *testing.T) {
	g := hcd.Grid2D(12, 12, nil, 1)
	rng := rand.New(rand.NewSource(3))
	B := make([][]float64, 3)
	for i := range B {
		B[i] = meanFree(rng, g.N())
	}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: B})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(resp.Results))
	}
	for i, res := range resp.Results {
		if !res.Converged {
			t.Errorf("rhs %d: outcome %s", i, res.Outcome)
		}
		if r := residual(g, res.X, B[i]); r > 1e-5 {
			t.Errorf("rhs %d: residual %v", i, r)
		}
	}
}

// TestDoMatchesWrapper: SolvePCGCtx is a thin wrapper over Do — identical
// request, identical iteration count.
func TestDoMatchesWrapper(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(9))
	b := meanFree(rng, g.N())
	m := hcd.JacobiPreconditioner(g)
	opt := hcd.DefaultSolveOptions()

	direct, err := hcd.SolvePCGCtx(context.Background(), g, b, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{b}, Method: hcd.SolveMethodPCG, M: m, Options: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Iterations; got != direct.Iterations {
		t.Fatalf("Do iterations %d != SolvePCGCtx iterations %d", got, direct.Iterations)
	}
}

// TestDoEngineDetaches: results from the engine path must survive engine
// reuse — Do copies them out of the engine's aliased buffers.
func TestDoEngineDetaches(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(4))
	b1, b2 := meanFree(rng, g.N()), meanFree(rng, g.N())
	eng, err := hcd.NewEngine(g, hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	resp1, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b1}, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	x1 := append([]float64(nil), resp1.Results[0].X...)
	if _, err = hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b2}, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != resp1.Results[0].X[i] {
			t.Fatalf("engine reuse clobbered an earlier result at %d", i)
		}
	}
}

// TestDoPrecondSpecs: every named preconditioner kind builds and converges
// through the spec path.
func TestDoPrecondSpecs(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(6))
	b := meanFree(rng, g.N())
	for _, kind := range []hcd.PrecondKind{
		hcd.PrecondNone, hcd.PrecondJacobi, hcd.PrecondSteiner,
		hcd.PrecondTree, hcd.PrecondSubgraph, hcd.PrecondHierarchy,
	} {
		resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
			B: [][]float64{b}, Precond: hcd.PrecondSpec{Kind: kind},
		})
		if err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
		if !resp.Results[0].Converged {
			t.Errorf("kind %s: outcome %s", kind, resp.Results[0].Outcome)
		}
	}
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{b}, Precond: hcd.PrecondSpec{Kind: "bogus"},
	}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("bogus kind: %v, want ErrInvalidInput", err)
	}
}

// TestSolvePCGDimensionError: SolvePCGCtx returns a wrapped ErrBadDimension
// instead of panicking.
func TestSolvePCGDimensionError(t *testing.T) {
	g := hcd.Grid2D(6, 6, nil, 1)
	_, err := hcd.SolvePCGCtx(context.Background(), g, make([]float64, g.N()+1), hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions())
	if !errors.Is(err, hcd.ErrBadDimension) {
		t.Fatalf("got %v, want ErrBadDimension", err)
	}
}

// TestDoValidation: empty requests and bad options fail with
// ErrInvalidInput; a malformed column fails a resilient request with
// ErrBadDimension before any rung of the ladder runs.
func TestDoValidation(t *testing.T) {
	g := hcd.Grid2D(4, 4, nil, 1)
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("no RHS: %v, want ErrInvalidInput", err)
	}
	if _, err := hcd.Do(context.Background(), nil, hcd.SolveRequest{B: [][]float64{{1}}}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("nil graph: %v, want ErrInvalidInput", err)
	}
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{make([]float64, g.N())}, Method: "bogus",
	}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("bogus method: %v, want ErrInvalidInput", err)
	}
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{make([]float64, g.N())}, Method: hcd.SolveMethodChebyshev,
	}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("zero Chebyshev iterations: %v, want ErrInvalidInput", err)
	}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{make([]float64, g.N()), make([]float64, 2)}, Method: hcd.SolveMethodResilient,
	})
	if !errors.Is(err, hcd.ErrBadDimension) || errors.Is(err, hcd.ErrNotConverged) {
		t.Fatalf("short resilient column: %v, want ErrBadDimension", err)
	}
	if len(resp.Resilience) != 0 || len(resp.Results) != 0 {
		t.Fatalf("resilient ladder ran %d rung reports before rejecting the column", len(resp.Resilience))
	}
}

// TestDoChebyshevMultiRHS: the Chebyshev method probes once on the first
// right-hand side and reuses the spectrum bracket for the rest.
func TestDoChebyshevMultiRHS(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(8))
	B := [][]float64{meanFree(rng, g.N()), meanFree(rng, g.N())}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: B, Method: hcd.SolveMethodChebyshev,
		M:         hcd.JacobiPreconditioner(g),
		Chebyshev: hcd.DefaultChebyshevOptions(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lmin <= 0 || resp.Lmax <= resp.Lmin {
		t.Fatalf("bad spectrum estimate [%v, %v]", resp.Lmin, resp.Lmax)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(resp.Results))
	}
	for i, res := range resp.Results {
		if r := residual(g, res.X, B[i]); r > 1e-4 {
			t.Errorf("rhs %d: residual %v", i, r)
		}
	}
}
