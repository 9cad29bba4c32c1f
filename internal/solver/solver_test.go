package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

func meanFreeRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	s := 0.0
	for _, v := range b {
		s += v
	}
	for i := range b {
		b[i] -= s / float64(n)
	}
	return b
}

func residualNorm(g *graph.Graph, x, b []float64) float64 {
	ax := make([]float64, len(x))
	g.LapMul(ax, x)
	s := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestCGSolvesLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := workload.Grid2D(12, 12, workload.UniformWeight(0.5, 2), 1)
	b := meanFreeRHS(rng, g.N())
	res, err := PCGCtx(context.Background(), LapOperator(g), Identity(g.N()), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge in %d iterations", res.Iterations)
	}
	if rn := residualNorm(g, res.X, b); rn > 1e-6 {
		t.Errorf("residual %v", rn)
	}
}

func TestPCGJacobiBeatsCGOnSkewedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := workload.OCT3D(6, 6, 12, workload.OCTOptions{Layers: 4, Contrast: 1000, NoiseSigma: 1, Seed: 3})
	b := meanFreeRHS(rng, g.N())
	opt := DefaultOptions()
	opt.Tol = 1e-8
	cg, err := PCGCtx(context.Background(), LapOperator(g), Identity(g.N()), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !pcg.Converged {
		t.Fatalf("Jacobi-PCG did not converge")
	}
	if cg.Converged && cg.Iterations < pcg.Iterations/2 {
		t.Errorf("plain CG (%d iters) much faster than Jacobi-PCG (%d)?", cg.Iterations, pcg.Iterations)
	}
}

func TestPCGResidualHistoryMonotoneOverall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.Grid3D(6, 6, 6, workload.Lognormal(1), 2)
	b := meanFreeRHS(rng, g.N())
	res, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Residuals) != res.Iterations+1 {
		t.Fatalf("history length %d vs iterations %d", len(res.Residuals), res.Iterations)
	}
	if res.Residuals[len(res.Residuals)-1] > res.Residuals[0]*1e-7 {
		t.Errorf("final residual %v vs initial %v", res.Residuals[len(res.Residuals)-1], res.Residuals[0])
	}
}

func TestPCGZeroRHS(t *testing.T) {
	g := workload.Grid2D(4, 4, nil, 1)
	res, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), make([]float64, g.N()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs should converge instantly")
	}
	for _, v := range res.X {
		if v != 0 {
			t.Errorf("x should stay zero")
		}
	}
}

func TestPCGConstantRHSProjected(t *testing.T) {
	// b = constant vector is entirely in the Laplacian null space; with
	// ProjectMean the solver must return x = 0 immediately.
	g := workload.Grid2D(5, 5, nil, 1)
	b := make([]float64, g.N())
	for i := range b {
		b[i] = 3.7
	}
	res, err := PCGCtx(context.Background(), LapOperator(g), Identity(g.N()), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("projected constant rhs should converge")
	}
}

func TestSpectrumEstimateOnKnownOperator(t *testing.T) {
	// Diagonal operator with known eigenvalues 1..n: CG coefficients must
	// reproduce the extremes.
	n := 30
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = float64(i + 1)
	}
	op := OpFunc{N: n, F: func(dst, x []float64) {
		for i := range dst {
			dst[i] = diag[i] * x[i]
		}
	}}
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := PCGCtx(context.Background(), op, Identity(n), b, Options{Tol: 1e-14, MaxIter: n, ProjectMean: false})
	if err != nil {
		t.Fatal(err)
	}
	lmin, lmax, err := SpectrumEstimate(res.Alphas, res.Betas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lmin-1) > 0.05 || math.Abs(lmax-float64(n)) > 0.5 {
		t.Errorf("spectrum estimate [%v, %v], want [1, %d]", lmin, lmax, n)
	}
}

func TestConditionEstimateIdentityPreconditionerOnGrid(t *testing.T) {
	// κ of the normalized path Laplacian is known to grow like n²; just
	// check the estimate is sane and ≥ 1.
	g := workload.Grid2D(20, 1, nil, 1) // a path
	rng := rand.New(rand.NewSource(5))
	probe := meanFreeRHS(rng, g.N())
	kappa, err := ConditionEstimate(LapOperator(g), Identity(g.N()), probe, 100)
	if err != nil {
		t.Fatal(err)
	}
	if kappa < 10 {
		t.Errorf("path condition estimate %v suspiciously small", kappa)
	}
}

func TestChebyshevConvergesWithGoodBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := workload.Grid2D(10, 10, nil, 1)
	b := meanFreeRHS(rng, g.N())
	// Estimate spectrum of D⁻¹A via PCG first.
	res, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, Options{Tol: 1e-13, MaxIter: 200, ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	lmin, lmax, err := SpectrumEstimate(res.Alphas, res.Betas)
	if err != nil {
		t.Fatal(err)
	}
	cheb, err := ChebyshevCtx(context.Background(), LapOperator(g), Jacobi(g), b, lmin*0.9, lmax*1.1,
		Options{MaxIter: 200, ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	x, hist := cheb.X, cheb.Residuals
	if hist[len(hist)-1] > hist[0]*1e-4 {
		t.Errorf("Chebyshev residual %v vs initial %v", hist[len(hist)-1], hist[0])
	}
	if rn := residualNorm(g, x, b); rn > 1e-3*hist[0] {
		t.Errorf("Chebyshev residual mismatch: %v", rn)
	}
}

func TestChebyshevRejectsBadBounds(t *testing.T) {
	g := workload.Grid2D(3, 3, nil, 1)
	b := make([]float64, g.N())
	opt := Options{MaxIter: 5, ProjectMean: true}
	if _, err := ChebyshevCtx(context.Background(), LapOperator(g), Jacobi(g), b, 0, 1, opt); err == nil {
		t.Error("lmin=0 accepted")
	}
	if _, err := ChebyshevCtx(context.Background(), LapOperator(g), Jacobi(g), b, 2, 1, opt); err == nil {
		t.Error("lmax < lmin accepted")
	}
}

func TestSpectrumEstimateErrors(t *testing.T) {
	if _, _, err := SpectrumEstimate(nil, nil); err == nil {
		t.Error("empty coefficients accepted")
	}
}

func BenchmarkPCGJacobiGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := workload.Grid3D(15, 15, 15, workload.Lognormal(1), 1)
	rhs := meanFreeRHS(rng, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), rhs, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
