// Command hcd-selfcheck soaks the library's theorem-level guarantees on
// randomized instances with exact certificates: run it after any change to
// the core algorithms. Each check mirrors one of the paper's claims; a
// failure prints the offending seed for reproduction.
//
// Usage:
//
//	hcd-selfcheck -rounds 50 -seed 1
//	hcd-selfcheck -chaos
//	hcd-selfcheck -server-chaos
//
// The -chaos flag runs the deterministic fault-recovery battery instead of
// the theorem checks: each chaos check injects a fault (NaN matvec, worker
// panic, corrupted clustering, forced breakdown, malformed input) and
// asserts the library recovers or fails cleanly as documented.
//
// The -server-chaos flag runs the serving-layer durability battery: servers
// are crashed (in-process and via real SIGKILL) and restarted on the same
// -state-dir, snapshots are corrupted, and the PR-8 fault points
// (snapshot-write, snapshot-read, build-fail, solve-delay) are injected,
// asserting restore-without-rebuild, quarantine, breaker degradation to CG,
// and deadline status mapping.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"hcd"
	"hcd/internal/cli"
)

var failures int

func main() {
	rounds := flag.Int("rounds", 25, "random instances per check")
	seed := flag.Int64("seed", 1, "base seed")
	chaos := flag.Bool("chaos", false, "run the deterministic fault-recovery battery instead of the theorem checks")
	serverChaos := flag.Bool("server-chaos", false, "run the serving-layer crash/recovery battery instead of the theorem checks")
	o := cli.ObsFlags()
	flag.Parse()

	var err error
	chaosCtx, err = o.Start(chaosCtx)
	if err != nil {
		log.Fatal(err)
	}

	if *chaos || *serverChaos {
		bad := 0
		if *chaos {
			bad += chaosChecks()
		}
		if *serverChaos {
			bad += serverChaosChecks()
		}
		if cerr := o.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}
	defer func() {
		if cerr := o.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}()

	checks := []struct {
		name string
		run  func(rng *rand.Rand) error
	}{
		{"theorem 2.1: tree decomposition [φ≥1/3, ρ≥6/5]", checkTree},
		{"section 2: ≤1 γ-violation per cluster", checkGammaLemma},
		{"section 3.1: fixed-degree clustering [φ≥1/(2d²k), ρ≥2]", checkFixedDegree},
		{"theorem 2.2: planar pipeline validity", checkPlanar},
		{"theorem 3.5: σ(S_P, A) ≤ 3(1+2/φ³)", checkTheorem35},
		{"theorem 4.1: eigenvector alignment bound", checkTheorem41},
		{"two-level identity: PCG solves verified", checkSolve},
	}
	for _, c := range checks {
		rng := rand.New(rand.NewSource(*seed))
		bad := 0
		for r := 0; r < *rounds; r++ {
			if err := c.run(rng); err != nil {
				bad++
				fmt.Printf("FAIL %-52s round %d: %v\n", c.name, r, err)
			}
		}
		status := "ok"
		if bad > 0 {
			status = fmt.Sprintf("%d FAILURES", bad)
			failures += bad
		}
		fmt.Printf("%-58s %s (%d rounds)\n", c.name, status, *rounds)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func randomTree(rng *rand.Rand, lo, hi int) *hcd.Graph {
	n := lo + rng.Intn(hi-lo)
	return hcd.RandomTree(n, hcd.LognormalWeights(1.5), rng.Int63())
}

func checkTree(rng *rand.Rand) error {
	g := randomTree(rng, 4, 200)
	d, err := decomposeTree(g)
	if err != nil {
		return err
	}
	if err := hcd.Validate(d); err != nil {
		return err
	}
	rep := hcd.Evaluate(d)
	if !rep.PhiExact {
		return fmt.Errorf("conductance not exact")
	}
	if rep.Phi < 1.0/3-1e-9 {
		return fmt.Errorf("φ = %v < 1/3", rep.Phi)
	}
	if rep.Rho < 6.0/5 {
		return fmt.Errorf("ρ = %v < 6/5", rep.Rho)
	}
	return nil
}

func checkGammaLemma(rng *rand.Rand) error {
	g := randomTree(rng, 5, 150)
	d, err := decomposeTree(g)
	if err != nil {
		return err
	}
	rep := hcd.Evaluate(d)
	if mv := hcd.MaxGammaViolations(d, rep.Phi*(1-1e-9)); mv > 1 {
		return fmt.Errorf("%d γ-violations in a cluster", mv)
	}
	return nil
}

func checkFixedDegree(rng *rand.Rand) error {
	side := 4 + rng.Intn(5)
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), rng.Int63())
	d, err := decomposeFixedDegree(g, 4, rng.Int63())
	if err != nil {
		return err
	}
	if err := hcd.Validate(d); err != nil {
		return err
	}
	rep := hcd.Evaluate(d)
	if rep.Rho < 2 {
		return fmt.Errorf("ρ = %v < 2", rep.Rho)
	}
	dmax := g.MaxDegree()
	floor := 1.0 / (2 * float64(dmax*dmax) * float64(rep.MaxClusterSize))
	if rep.Phi < floor {
		return fmt.Errorf("φ = %v below certified floor %v", rep.Phi, floor)
	}
	return nil
}

func checkPlanar(rng *rand.Rand) error {
	side := 6 + rng.Intn(10)
	g := hcd.PlanarMesh(side, side, hcd.LognormalWeights(1), rng.Int63())
	res, err := hcd.DecomposeCtx(context.Background(), g,
		hcd.DefaultDecomposeOptions(hcd.MethodPlanar))
	if err != nil {
		return err
	}
	if err := hcd.Validate(res.D); err != nil {
		return err
	}
	if rep := hcd.Evaluate(res.D); rep.Phi <= 0 || rep.Rho <= 1 {
		return fmt.Errorf("degenerate report %+v", rep)
	}
	return nil
}

func checkTheorem35(rng *rand.Rand) error {
	g := randomTree(rng, 20, 400)
	d, err := decomposeTree(g)
	if err != nil {
		return err
	}
	rep := hcd.Evaluate(d)
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		return err
	}
	nums, err := hcd.MeasureSupport(g, p, cli.MeanFreeRHS(g.N(), rng.Int63()), 60)
	if err != nil {
		return err
	}
	bound := 3 * (1 + 2/math.Pow(rep.Phi, 3))
	if nums.SigmaBA > bound*1.01 {
		return fmt.Errorf("σ(B,A) = %v > bound %v (φ=%v)", nums.SigmaBA, bound, rep.Phi)
	}
	return nil
}

func checkTheorem41(rng *rand.Rand) error {
	side := 5 + rng.Intn(6)
	g := hcd.Grid2D(side, side, hcd.LognormalWeights(1), rng.Int63())
	d, err := decomposeFixedDegree(g, 4, rng.Int63())
	if err != nil {
		return err
	}
	rep := hcd.Evaluate(d)
	k := 3
	if k >= g.N()-1 {
		k = g.N() - 2
	}
	vals, vecs, err := hcd.SmallestEigenpairs(g, k, 0, rng.Int63())
	if err != nil {
		return err
	}
	for i := range vals {
		mis := 1 - hcd.Alignment(d, vecs[i])
		bound := 3 * vals[i] * (1 + 2/math.Pow(rep.Phi, 3))
		if mis > bound+1e-7 {
			return fmt.Errorf("eig %d: misalignment %v > bound %v", i, mis, bound)
		}
	}
	return nil
}

func checkSolve(rng *rand.Rand) error {
	side := 5 + rng.Intn(5)
	g := hcd.OCT3D(side, side, side, hcd.OCTOptions{
		Layers: 3, Contrast: 50, NoiseSigma: 1, Seed: rng.Int63(),
	})
	b := cli.MeanFreeRHS(g.N(), rng.Int63())
	res, err := hcd.SolveCtx(context.Background(), g, b)
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("not converged in %d iterations", res.Iterations)
	}
	ax := make([]float64, g.N())
	g.LapMul(ax, res.X)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-5 {
			return fmt.Errorf("residual %v at %d", ax[i]-b[i], i)
		}
	}
	return nil
}

func init() {
	log.SetFlags(0)
}

// decomposeTree and decomposeFixedDegree run DecomposeCtx for the checks,
// which need only the decomposition.
func decomposeTree(g *hcd.Graph) (*hcd.Decomposition, error) {
	res, err := hcd.DecomposeCtx(context.Background(), g,
		hcd.DecomposeOptions{Method: hcd.MethodTree, SkipReport: true})
	if err != nil {
		return nil, err
	}
	return res.D, nil
}

func decomposeFixedDegree(g *hcd.Graph, sizeCap int, seed int64) (*hcd.Decomposition, error) {
	res, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{
		Method: hcd.MethodFixedDegree, SizeCap: sizeCap, Seed: seed, SkipReport: true,
	})
	if err != nil {
		return nil, err
	}
	return res.D, nil
}
