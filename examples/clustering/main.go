// clustering demonstrates the [φ, ρ] decompositions themselves as a graph
// clustering primitive: it partitions a planar mesh with the Theorem 2.2
// pipeline, reports per-cluster conductance certificates, and shows the
// laminar hierarchy obtained by recursing on quotients (the structure used
// for oblivious routing and multilevel preconditioning).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"hcd"
)

func main() {
	g := hcd.PlanarMesh(32, 32, hcd.LognormalWeights(1), 3)
	fmt.Printf("planar mesh: n=%d m=%d\n", g.N(), g.M())

	res, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{
		Method: hcd.MethodPlanar, Base: hcd.MaxWeightTree, ExtraFraction: 0.25, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := hcd.Validate(res.D); err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	fmt.Printf("Theorem 2.2 pipeline: core |W|=%d, cut |C|=%d, avg stretch %.2f\n",
		res.CoreSize, res.CutEdges, res.AvgStretch)
	fmt.Printf("decomposition: %d clusters, ρ=%.2f, min closure conductance φ=%.3f\n",
		res.D.Count, rep.Rho, rep.Phi)

	// Cluster size distribution.
	sizes := map[int]int{}
	for _, c := range res.D.Clusters() {
		sizes[len(c)]++
	}
	keys := make([]int, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Println("cluster sizes:")
	for _, k := range keys {
		fmt.Printf("  %2d vertices × %d clusters\n", k, sizes[k])
	}

	// Recursive clustering: the laminar decomposition. Each level clusters
	// the previous level's quotient graph.
	lam, err := hcd.BuildLaminarCtx(context.Background(), g, 4, 10, 1)
	if err != nil {
		log.Fatal(err)
	}
	levels := lam.Levels
	fmt.Println("laminar hierarchy (recursive §3.1 clustering):")
	n := g.N()
	for i, d := range levels {
		r := hcd.Evaluate(d)
		fmt.Printf("  level %d: %d → %d vertices (ρ=%.2f, φ=%.3f)\n",
			i, n, d.Count, r.Rho, r.Phi)
		n = d.Count
	}
}
