package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

// forceParallel raises GOMAXPROCS so the chunked kernel paths actually fan
// out even on single-core CI machines; returns a restore function.
func forceParallel(p int) func() {
	prev := runtime.GOMAXPROCS(p)
	return func() { runtime.GOMAXPROCS(prev) }
}

func randomConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	es := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.1 + rng.Float64()})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: 0.1 + rng.Float64()})
		}
	}
	return graph.MustFromEdges(n, es)
}

// The parallel row-blocked matvec computes every row exactly as the serial
// loop does, so the results must be bitwise identical.
func TestParallelMatvecBitwiseEqualsSerial(t *testing.T) {
	defer forceParallel(8)()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{50, 1000, 20000} {
		g := randomConnectedGraph(rng, n, n/2)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		g.LapMulSerial(want, x)
		g.LapMul(got, x)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("n=%d: row %d differs: serial %v parallel %v", n, i, want[i], got[i])
			}
		}
	}
}

// Chunked reductions reassociate the summation, so the dot/norm/projection
// kernels agree with the serial reference only to rounding, at width 1 and
// on a packed block alike; the elementwise direction update is exact.
func TestParallelKernelsMatchSerial(t *testing.T) {
	defer forceParallel(8)()
	rng := rand.New(rand.NewSource(12))
	n := 3*kernelGrain + 137 // force multiple chunks at every width
	for _, k := range []int{1, 3} {
		a := make([]float64, n*k)
		b := make([]float64, n*k)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var s scratch
		dots := make([]float64, k)
		norms := make([]float64, k)
		s.blockDots(a, b, n, k, dots)
		s.blockNormSq(a, n, k, norms)
		for j := 0; j < k; j++ {
			serialDot, serialNorm := 0.0, 0.0
			for v := 0; v < n; v++ {
				serialDot += a[v*k+j] * b[v*k+j]
				serialNorm += a[v*k+j] * a[v*k+j]
			}
			if math.Abs(dots[j]-serialDot) > 1e-9*(1+math.Abs(serialDot)) {
				t.Errorf("k=%d col %d dot: chunked %v vs serial %v", k, j, dots[j], serialDot)
			}
			if math.Abs(norms[j]-serialNorm) > 1e-9*(1+serialNorm) {
				t.Errorf("k=%d col %d norm²: chunked %v vs serial %v", k, j, norms[j], serialNorm)
			}
		}

		beta := make([]float64, k)
		for j := range beta {
			beta[j] = 0.37 + float64(j)
		}
		p := append([]float64(nil), a...)
		s.blockXPBY(p, b, beta, n, k)
		for i := range p {
			if want := b[i] + beta[i%k]*a[i]; p[i] != want {
				t.Fatalf("k=%d xpby entry %d: %v vs %v", k, i, p[i], want)
			}
		}

		pm := append([]float64(nil), a...)
		s.projectMean(pm, n, k)
		for j := 0; j < k; j++ {
			sum := 0.0
			for v := 0; v < n; v++ {
				sum += pm[v*k+j]
			}
			if math.Abs(sum/float64(n)) > 1e-12 {
				t.Errorf("k=%d col %d: projectMean left mean %v", k, j, sum/float64(n))
			}
		}
	}
}

// PCG under forced parallelism must solve to the same tolerance as the
// serial path and agree with it closely (identical recurrence, reassociated
// reductions).
func TestPCGParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := workload.Grid2D(40, 40, workload.Lognormal(1), 5)
	b := meanFreeRHS(rng, g.N())
	serial, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	restore := forceParallel(8)
	par, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	restore()

	if !serial.Converged || !par.Converged {
		t.Fatalf("convergence: serial %v parallel %v", serial.Outcome, par.Outcome)
	}
	for i := range serial.X {
		if math.Abs(serial.X[i]-par.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: serial %v parallel %v", i, serial.X[i], par.X[i])
		}
	}
}

// slowOp wraps an operator with a per-apply delay so a cancellation arriving
// mid-solve is observable.
type slowOp struct {
	op    Operator
	delay time.Duration
}

func (s slowOp) Dim() int { return s.op.Dim() }
func (s slowOp) Apply(dst, x []float64) {
	time.Sleep(s.delay)
	s.op.Apply(dst, x)
}

func TestCancellationReturnsPromptly(t *testing.T) {
	g := workload.Grid2D(30, 30, workload.Lognormal(1), 7)
	rng := rand.New(rand.NewSource(14))
	b := meanFreeRHS(rng, g.N())
	op := slowOp{op: LapOperator(g), delay: 2 * time.Millisecond}
	opt := DefaultOptions()
	opt.Tol = 1e-14 // keep it iterating until cancelled
	opt.CheckEvery = 1
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := PCGCtx(ctx, op, Jacobi(g), b, opt)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCancelled {
		t.Fatalf("outcome %v, want cancelled (after %d iterations)", res.Outcome, res.Iterations)
	}
	if res.Converged {
		t.Error("cancelled solve reported Converged")
	}
	// CheckEvery=1 → at most one 2ms apply after the cancel lands.
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled solve took %v", elapsed)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	g := workload.Grid2D(10, 10, workload.Lognormal(1), 7)
	rng := rand.New(rand.NewSource(15))
	b := meanFreeRHS(rng, g.N())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PCGCtx(ctx, LapOperator(g), Jacobi(g), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCancelled || res.Iterations != 0 {
		t.Errorf("outcome %v after %d iterations, want immediate cancel", res.Outcome, res.Iterations)
	}
}

func TestChebyshevCancellation(t *testing.T) {
	g := workload.Grid2D(20, 20, workload.Lognormal(1), 7)
	rng := rand.New(rand.NewSource(16))
	b := meanFreeRHS(rng, g.N())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ChebyshevCtx(ctx, LapOperator(g), Jacobi(g), b, 0.1, 2.0,
		Options{MaxIter: 100, ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCancelled || res.Iterations != 0 {
		t.Errorf("outcome %v after %d iterations, want immediate cancel", res.Outcome, res.Iterations)
	}
}

func TestOutcomeMaxIter(t *testing.T) {
	g := workload.Grid2D(20, 20, workload.Lognormal(1), 3)
	rng := rand.New(rand.NewSource(17))
	b := meanFreeRHS(rng, g.N())
	opt := DefaultOptions()
	opt.MaxIter = 2
	res, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeMaxIter || res.Converged {
		t.Errorf("outcome %v converged=%v, want max-iterations", res.Outcome, res.Converged)
	}
	if errors.Is(ErrNotConverged, ErrNotConverged) != true {
		t.Error("sentinel identity broken")
	}
}

func TestMetricsPopulated(t *testing.T) {
	g := workload.Grid3D(8, 8, 8, workload.Lognormal(1), 2)
	rng := rand.New(rand.NewSource(18))
	b := meanFreeRHS(rng, g.N())
	res, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !res.Converged {
		t.Fatalf("solve did not converge: %v", res.Outcome)
	}
	if m.MatVecs != res.Iterations {
		t.Errorf("MatVecs %d vs iterations %d", m.MatVecs, res.Iterations)
	}
	if m.PrecondApplies < res.Iterations {
		t.Errorf("PrecondApplies %d < iterations %d", m.PrecondApplies, res.Iterations)
	}
	if m.Iterations != res.Iterations || m.TotalTime <= 0 {
		t.Errorf("metrics %+v inconsistent with result", m)
	}
	if m.FinalResidual != res.Residuals[len(res.Residuals)-1] {
		t.Errorf("FinalResidual %v vs history tail %v", m.FinalResidual, res.Residuals[len(res.Residuals)-1])
	}
	if m.TotalTime < m.IterTime {
		t.Errorf("TotalTime %v < IterTime %v", m.TotalTime, m.IterTime)
	}

	cres, err := ChebyshevCtx(context.Background(), LapOperator(g), Jacobi(g), b, 0.05, 2.5,
		Options{MaxIter: 30, ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Metrics.MatVecs != 30 || cres.Metrics.PrecondApplies != 30 {
		t.Errorf("chebyshev metrics %+v, want 30 matvecs and applies", cres.Metrics)
	}
	if cres.Outcome != OutcomeMaxIter {
		t.Errorf("chebyshev outcome %v without Tol, want max-iterations", cres.Outcome)
	}
}

func TestProgressCallback(t *testing.T) {
	g := workload.Grid2D(15, 15, workload.Lognormal(1), 4)
	rng := rand.New(rand.NewSource(19))
	b := meanFreeRHS(rng, g.N())
	var iters []int
	opt := DefaultOptions()
	opt.Progress = func(iter int, resid float64) {
		iters = append(iters, iter)
		if resid < 0 || math.IsNaN(resid) {
			t.Errorf("bad residual %v at iter %d", resid, iter)
		}
	}
	res, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Iterations {
		t.Errorf("progress called %d times for %d iterations", len(iters), res.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("progress sequence broken at %d: %v", i, it)
		}
	}
}

func TestEngineRepeatedSolvesZeroAlloc(t *testing.T) {
	// Small graph: every kernel is below the parallel grain, so the solve is
	// pure arithmetic on engine-owned buffers.
	g := workload.Grid2D(16, 16, workload.Lognormal(1), 5)
	rng := rand.New(rand.NewSource(20))
	b := meanFreeRHS(rng, g.N())
	eng, err := NewLapEngine(g, Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatalf("warmup did not converge: %v", warm.Outcome)
	}
	if warm.Metrics.ScratchAllocs == 0 {
		t.Error("first solve should report its buffer allocations")
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := eng.Solve(context.Background(), b)
		if err != nil || !res.Converged {
			t.Fatal("warm solve failed")
		}
		if res.Metrics.ScratchAllocs != 0 {
			t.Fatalf("warm solve allocated %d scratch buffers", res.Metrics.ScratchAllocs)
		}
	})
	if allocs != 0 {
		t.Errorf("warm engine solve allocates %v times per run, want 0", allocs)
	}
}

func TestEngineResultsAliasBuffers(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 6)
	rng := rand.New(rand.NewSource(21))
	b1 := meanFreeRHS(rng, g.N())
	b2 := meanFreeRHS(rng, g.N())
	eng, err := NewLapEngine(g, Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := eng.Solve(context.Background(), b1)
	x1 := append([]float64(nil), r1.X...)
	r2, _ := eng.Solve(context.Background(), b2)
	// r1.X aliases the engine buffer and has been overwritten by r2.
	if &r1.X[0] != &r2.X[0] {
		t.Error("engine results should share the X buffer")
	}
	// Sanity: the copied snapshot still verifies against b1.
	ax := make([]float64, g.N())
	g.LapMul(ax, x1)
	for i := range ax {
		if math.Abs(ax[i]-b1[i]) > 1e-5 {
			t.Fatalf("snapshot of first solve no longer solves b1 at %d", i)
		}
	}
}

func TestEngineChebyshevAndDimErrors(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 6)
	rng := rand.New(rand.NewSource(22))
	b := meanFreeRHS(rng, g.N())
	eng, err := NewLapEngine(g, Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap spectrum bounds from a PCG probe, as hcd.SolveChebyshevCtx does.
	probe, err := eng.SolveWith(context.Background(), b, Options{Tol: 1e-12, MaxIter: 40, ProjectMean: true})
	if err != nil {
		t.Fatal(err)
	}
	lmin, lmax, err := SpectrumEstimate(probe.Alphas, probe.Betas)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SolveChebyshev(context.Background(), b, lmin*0.8, lmax*1.2,
		Options{MaxIter: 1000, ProjectMean: true, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeConverged {
		t.Errorf("chebyshev with Tol did not converge: %v after %d iters (resid %v)",
			res.Outcome, res.Iterations, res.Metrics.FinalResidual)
	}
	if _, err := eng.Solve(context.Background(), b[:10]); !errors.Is(err, graph.ErrBadDimension) {
		t.Errorf("short rhs error %v, want ErrBadDimension", err)
	}
	if _, err := NewLapEngine(g, Identity(3), DefaultOptions()); !errors.Is(err, graph.ErrBadDimension) {
		t.Errorf("mismatched preconditioner error %v, want ErrBadDimension", err)
	}
}
