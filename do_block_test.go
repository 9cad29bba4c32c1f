package hcd_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"hcd"
)

// TestDoBlockRoutingMatchesSequential: a multi-RHS PCG request runs as one
// block solve, and converges to the same solutions as one-column requests
// with per-column iteration counts within ±10% of theirs.
func TestDoBlockRoutingMatchesSequential(t *testing.T) {
	g := hcd.Grid2D(20, 20, nil, 1)
	rng := rand.New(rand.NewSource(31))
	B := make([][]float64, 4)
	for i := range B {
		B[i] = meanFree(rng, g.N())
	}
	req := hcd.SolveRequest{B: B, Precond: hcd.PrecondSpec{Kind: hcd.PrecondJacobi}}
	block, err := hcd.Do(context.Background(), g, req)
	if err != nil {
		t.Fatal(err)
	}
	seq := &hcd.SolveResponse{}
	for _, b := range B {
		req.B = [][]float64{b}
		one, err := hcd.Do(context.Background(), g, req)
		if err != nil {
			t.Fatal(err)
		}
		seq.Results = append(seq.Results, one.Results...)
	}
	if len(block.Results) != len(B) || len(seq.Results) != len(B) {
		t.Fatalf("result counts: block %d, sequential %d", len(block.Results), len(seq.Results))
	}
	for i := range B {
		br, sr := block.Results[i], seq.Results[i]
		if !br.Converged || !sr.Converged {
			t.Fatalf("rhs %d: block %s, sequential %s", i, br.Outcome, sr.Outcome)
		}
		if r := residual(g, br.X, B[i]); r > 1e-5 {
			t.Errorf("rhs %d: block residual %v", i, r)
		}
		lo := int(math.Floor(0.9 * float64(sr.Iterations)))
		hi := int(math.Ceil(1.1*float64(sr.Iterations))) + 1
		if br.Iterations < lo || br.Iterations > hi {
			t.Errorf("rhs %d: block %d iterations vs sequential %d (outside ±10%%)",
				i, br.Iterations, sr.Iterations)
		}
	}
}

// TestDoBlockEngineDetaches: block results from an engine-backed request are
// copied out of the engine's packed buffers and survive the engine's next
// solve.
func TestDoBlockEngineDetaches(t *testing.T) {
	g := hcd.Grid2D(14, 14, nil, 1)
	rng := rand.New(rand.NewSource(32))
	eng, err := hcd.NewHierarchyEngine(g, hcd.DefaultHierarchyOptions(), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	B := [][]float64{meanFree(rng, g.N()), meanFree(rng, g.N())}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: B, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), resp.Results[0].X...)
	// Another solve on the same engine overwrites the packed scratch.
	B2 := [][]float64{meanFree(rng, g.N()), meanFree(rng, g.N())}
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: B2, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	for i := range saved {
		if resp.Results[0].X[i] != saved[i] {
			t.Fatal("block result aliased engine scratch: overwritten by the next solve")
		}
	}
	if r := residual(g, resp.Results[0].X, B[0]); r > 1e-5 {
		t.Errorf("detached result residual %v", r)
	}
}

// TestDoMultiRHSPartialFailure: a bad column no longer discards its
// neighbors — every column is attempted, completed columns keep their
// results, and the joined error still matches the wrapped sentinel.
func TestDoMultiRHSPartialFailure(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(33))
	good1 := meanFree(rng, g.N())
	bad := make([]float64, g.N()-1) // wrong length
	good2 := meanFree(rng, g.N())
	req := hcd.SolveRequest{
		B:       [][]float64{good1, bad, good2},
		Precond: hcd.PrecondSpec{Kind: hcd.PrecondJacobi},
	}
	resp, err := hcd.Do(context.Background(), g, req)
	if err == nil {
		t.Fatal("want an error for the malformed column")
	}
	if !errors.Is(err, hcd.ErrBadDimension) {
		t.Fatalf("error %v does not wrap ErrBadDimension", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results (completed columns preserved), got %d", len(resp.Results))
	}
	for _, i := range []int{0, 2} {
		if !resp.Results[i].Converged {
			t.Errorf("good column %d lost: outcome %s", i, resp.Results[i].Outcome)
		}
	}
	if resp.Results[1].Outcome != hcd.OutcomeUnknown {
		t.Errorf("failed column outcome %s, want unknown", resp.Results[1].Outcome)
	}

	// Chebyshev probes the spectrum on the first well-formed column, so a
	// malformed first column does not sink the rest of the request.
	resp, err = hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{bad, good1}, Method: hcd.SolveMethodChebyshev,
		Precond: hcd.PrecondSpec{Kind: hcd.PrecondJacobi}, Chebyshev: hcd.DefaultChebyshevOptions(300),
	})
	if !errors.Is(err, hcd.ErrBadDimension) {
		t.Fatalf("chebyshev: error %v does not wrap ErrBadDimension", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("chebyshev: want 2 results, got %d", len(resp.Results))
	}
	if r := residual(g, resp.Results[1].X, good1); r > 1e-4 {
		t.Errorf("chebyshev: good column residual %v", r)
	}
}
