package solver

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hcd/internal/workload"
)

// TestBlockPCGK1BitIdentical: a one-column block solve matches PCGCtx bit for
// bit — X and residual history.
func TestBlockPCGK1BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := workload.Grid2D(20, 20, workload.UniformWeight(0.5, 2), 1)
	b := meanFreeRHS(rng, g.N())
	opt := DefaultOptions()

	want, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BlockPCGCtx(context.Background(), LapOperator(g), Jacobi(g), [][]float64{b}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("want 1 result, got %d", len(got))
	}
	if got[0].Iterations != want.Iterations || got[0].Outcome != want.Outcome {
		t.Fatalf("k=1 block: %d iters %v vs scalar %d iters %v",
			got[0].Iterations, got[0].Outcome, want.Iterations, want.Outcome)
	}
	for i := range want.X {
		if got[0].X[i] != want.X[i] {
			t.Fatalf("X[%d]: block %v != scalar %v", i, got[0].X[i], want.X[i])
		}
	}
	for i := range want.Residuals {
		if got[0].Residuals[i] != want.Residuals[i] {
			t.Fatalf("Residuals[%d]: block %v != scalar %v", i, got[0].Residuals[i], want.Residuals[i])
		}
	}
}

// TestBlockPCGMatchesScalarPerColumn: every column of a k=5 block solve
// converges to the scalar solution, and per-column iteration counts stay
// within ±10% of the scalar path's (the block recurrences are the same
// arithmetic, only summation order differs).
func TestBlockPCGMatchesScalarPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := workload.Grid2D(24, 24, workload.Lognormal(1), 5)
	n := g.N()
	const k = 5
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, n)
	}
	opt := DefaultOptions()

	results, err := BlockPCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		scalar, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs[j], opt)
		if err != nil {
			t.Fatal(err)
		}
		res := results[j]
		if !res.Converged {
			t.Fatalf("column %d: %v after %d iterations: %s", j, res.Outcome, res.Iterations, res.Reason)
		}
		if rn := residualNorm(g, res.X, bs[j]); rn > 1e-5 {
			t.Errorf("column %d: true residual %v", j, rn)
		}
		lo := int(math.Floor(0.9 * float64(scalar.Iterations)))
		hi := int(math.Ceil(1.1*float64(scalar.Iterations))) + 1
		if res.Iterations < lo || res.Iterations > hi {
			t.Errorf("column %d: %d block iterations vs %d scalar (outside ±10%%)",
				j, res.Iterations, scalar.Iterations)
		}
		if res.Metrics.MatVecs != res.Iterations {
			t.Errorf("column %d: %d matvecs vs %d iterations", j, res.Metrics.MatVecs, res.Iterations)
		}
	}
}

// TestBlockPCGDeflation: columns that converge at different iterations —
// including a zero column that deflates before the first iteration — all end
// with correct solutions, and the early columns stop counting iterations
// when they deflate.
func TestBlockPCGDeflation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := workload.Grid2D(24, 24, workload.Lognormal(1), 9)
	n := g.N()
	// Column 1 is all-zero (immediate convergence); column 2 is a tiny,
	// near-solved system seeded from one PCG step's residual scale; the rest
	// are independent random right-hand sides.
	bs := [][]float64{
		meanFreeRHS(rng, n),
		make([]float64, n),
		nil,
		meanFreeRHS(rng, n),
		meanFreeRHS(rng, n),
	}
	// An "easy" column: b = L·x* for a localized x*, which PCG resolves in
	// fewer iterations than a dense random rhs on this graph.
	easy := make([]float64, n)
	spike := make([]float64, n)
	spike[n/2] = 1
	g.LapMul(easy, spike)
	bs[2] = easy

	opt := DefaultOptions()
	results, err := BlockPCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if !res.Converged {
			t.Fatalf("column %d: %v after %d iterations: %s", j, res.Outcome, res.Iterations, res.Reason)
		}
		if rn := residualNorm(g, res.X, bs[j]); rn > 1e-5 {
			t.Errorf("column %d: true residual %v", j, rn)
		}
	}
	if results[1].Iterations != 0 {
		t.Errorf("zero column ran %d iterations, want 0", results[1].Iterations)
	}
	// Deflation must actually trigger mid-solve: iteration counts differ.
	iters := map[int]bool{}
	for _, res := range results {
		iters[res.Iterations] = true
	}
	if len(iters) < 2 {
		t.Errorf("all columns converged at the same iteration %v; deflation untested", results[0].Iterations)
	}
	// A deflated column's history stops at its own convergence.
	for j, res := range results {
		if len(res.Residuals) != res.Iterations+1 {
			t.Errorf("column %d: %d residual samples for %d iterations", j, len(res.Residuals), res.Iterations)
		}
	}
}

// TestBlockPCGGOMAXPROCSInvariant: every reduction uses a fixed chunk
// partition, so the whole solve — iterates and histories — is bit-identical
// at any worker count, at width 1 as for a block. The graph has more than
// kernelGrain vertices, so the width-1 kernels and the matvec actually cross
// their parallel grains.
func TestBlockPCGGOMAXPROCSInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := workload.Grid2D(160, 160, workload.Lognormal(1), 3)
	n := g.N()
	if n <= kernelGrain {
		t.Fatalf("n=%d does not cross the kernel grain %d", n, kernelGrain)
	}
	// Invariance, not convergence, is under test: a capped budget keeps the
	// eight solves short.
	opt := DefaultOptions()
	opt.MaxIter = 60
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, k := range []int{1, 4} {
		bs := make([][]float64, k)
		for j := range bs {
			bs[j] = meanFreeRHS(rng, n)
		}
		runtime.GOMAXPROCS(1)
		ref, err := BlockPCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := BlockPCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs, opt)
			if err != nil {
				t.Fatal(err)
			}
			for j := range ref {
				if got[j].Iterations != ref[j].Iterations {
					t.Fatalf("k=%d procs=%d column %d: %d iterations vs %d at procs=1",
						k, procs, j, got[j].Iterations, ref[j].Iterations)
				}
				for i := range ref[j].X {
					if got[j].X[i] != ref[j].X[i] {
						t.Fatalf("k=%d procs=%d column %d X[%d]: %v != %v",
							k, procs, j, i, got[j].X[i], ref[j].X[i])
					}
				}
				for i := range ref[j].Residuals {
					if got[j].Residuals[i] != ref[j].Residuals[i] {
						t.Fatalf("k=%d procs=%d column %d residual[%d]: %v != %v",
							k, procs, j, i, got[j].Residuals[i], ref[j].Residuals[i])
					}
				}
			}
		}
	}
}

// TestEngineSolveBlockWarmAllocs: a warmed engine's block solves reuse every
// packed buffer and allocate nothing at all.
func TestEngineSolveBlockWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := workload.Grid2D(16, 16, workload.Lognormal(1), 2)
	n := g.N()
	eng, err := NewLapEngine(g, Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, n)
	}
	if _, err := eng.SolveBlock(context.Background(), bs, eng.Options()); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.SolveBlock(context.Background(), bs, eng.Options())
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range warm {
		if res.Metrics.ScratchAllocs != 0 {
			t.Errorf("column %d: %d scratch allocs on a warm engine", j, res.Metrics.ScratchAllocs)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.SolveBlock(context.Background(), bs, eng.Options()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm engine block solve allocates %v times per run, want 0", allocs)
	}
}

// TestBlockPCGNonBlockPrecondFallback: a preconditioner without ApplyBlock
// still works through the column-staging fallback.
func TestBlockPCGNonBlockPrecondFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := workload.Grid2D(16, 16, workload.UniformWeight(0.5, 2), 4)
	n := g.N()
	vols := g.Volumes()
	m := OpFunc{N: n, F: func(dst, r []float64) {
		for i := range dst {
			if vols[i] > 0 {
				dst[i] = r[i] / vols[i]
			} else {
				dst[i] = r[i]
			}
		}
	}}
	bs := [][]float64{meanFreeRHS(rng, n), meanFreeRHS(rng, n), meanFreeRHS(rng, n)}
	results, err := BlockPCGCtx(context.Background(), LapOperator(g), m, bs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if !res.Converged {
			t.Fatalf("column %d: %v: %s", j, res.Outcome, res.Reason)
		}
		if rn := residualNorm(g, res.X, bs[j]); rn > 1e-5 {
			t.Errorf("column %d: true residual %v", j, rn)
		}
	}
}

// TestBlockPCGDimensionErrors: mismatched columns are rejected up front.
func TestBlockPCGDimensionErrors(t *testing.T) {
	g := workload.Grid2D(5, 5, nil, 1)
	bs := [][]float64{make([]float64, g.N()), make([]float64, g.N()-1)}
	if _, err := BlockPCGCtx(context.Background(), LapOperator(g), nil, bs, DefaultOptions()); err == nil {
		t.Fatal("want dimension error")
	}
	if _, err := BlockPCGCtx(context.Background(), LapOperator(g), nil, nil, DefaultOptions()); err == nil {
		t.Fatal("want error for empty block")
	}
}
