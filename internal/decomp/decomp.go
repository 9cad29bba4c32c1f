// Package decomp implements the paper's central objects: [φ, ρ]
// decompositions — partitions of a weighted graph into vertex-disjoint
// clusters such that the closure of every cluster (induced subgraph plus one
// degree-1 stub per boundary edge) has conductance at least φ, with vertex
// reduction factor n/#clusters ≥ ρ.
//
// Three constructions are provided:
//
//   - TreeCtx (Theorem 2.1): 3-critical-vertex clustering of trees and
//     forests.
//   - SparseCoreCtx (the engine of Theorems 2.2/2.3): strip degree-1/degree-2
//     vertices of a tree-plus-few-edges subgraph to a core W, cut the
//     lightest edge of every W–W path, and run TreeCtx on the resulting
//     trees.
//   - FixedDegreeCtx (Section 3.1): the embarrassingly parallel
//     perturb/heaviest-edge/split clustering.
package decomp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// CertStats re-exports the certification work counters of the stub-aware
// exact conductance certifier (cores enumerated, stubs collapsed, core
// side-assignments visited, sweep-bound fallbacks).
type CertStats = graph.CertStats

// mustClusterPhi certifies the exact closure conductance of a cluster whose
// membership is unique, in-range, and under the core enumeration limit by
// construction (it came out of this package's own partition bookkeeping). An
// error here is an internal invariant violation, so it panics —
// caller-supplied clusters go through the certifier's error return.
func mustClusterPhi(c *graph.Certifier, vs []int) float64 {
	phi, err := c.ClusterPhi(vs)
	if err != nil {
		panic(err)
	}
	return phi
}

// mustBuilderClosure is ClosureBuilder.Closure for clusters valid by
// construction; the returned graph aliases the builder (valid until its next
// call).
func mustBuilderClosure(b *graph.ClosureBuilder, vs []int) *graph.Graph {
	clo, _, err := b.Closure(vs)
	if err != nil {
		panic(err)
	}
	return clo
}

// Decomposition is a partition of the vertices of G into Count clusters.
type Decomposition struct {
	G      *graph.Graph
	Assign []int // vertex -> cluster id in [0, Count)
	Count  int
}

// Clusters materializes the vertex lists of all clusters.
func (d *Decomposition) Clusters() [][]int {
	cs := make([][]int, d.Count)
	for v, c := range d.Assign {
		cs[c] = append(cs[c], v)
	}
	return cs
}

// ReductionFactor returns ρ = n / #clusters.
func (d *Decomposition) ReductionFactor() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.G.N()) / float64(d.Count)
}

// Validate checks the structural invariants: every vertex is assigned a
// cluster id in range, every cluster is non-empty, and every cluster induces
// a connected subgraph of G.
func (d *Decomposition) Validate() error {
	if len(d.Assign) != d.G.N() {
		return fmt.Errorf("decomp: assignment length %d != n %d", len(d.Assign), d.G.N())
	}
	seen := make([]bool, d.Count)
	for v, c := range d.Assign {
		if c < 0 || c >= d.Count {
			return fmt.Errorf("decomp: vertex %d assigned out-of-range cluster %d", v, c)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("decomp: cluster %d is empty", c)
		}
	}
	b := graph.NewClosureBuilder(d.G)
	order, start := d.clusterSpans()
	for c := 0; c < d.Count; c++ {
		vs := order[start[c]:start[c+1]]
		sub, _, err := b.InducedSubgraph(vs)
		if err != nil {
			return fmt.Errorf("decomp: cluster %d induced subgraph: %w", c, err)
		}
		if !sub.Connected() {
			return fmt.Errorf("decomp: cluster %d (size %d) is not connected", c, len(vs))
		}
	}
	return nil
}

// Report summarizes the quality of a decomposition.
type Report struct {
	Phi            float64 // minimum closure conductance over clusters
	PhiExact       bool    // true if every cluster's closure conductance was computed exactly
	Rho            float64 // vertex reduction factor
	Count          int     // number of clusters
	MaxClusterSize int
	Singletons     int     // clusters of size 1
	GammaMin       float64 // min over vertices of cap(v, cluster−v)/vol(v), the (φ,γ) γ
	// CutFraction is the total weight of inter-cluster edges over the total
	// edge weight — the γ_avg of Kannan–Vempala–Vetta (φ, γ_avg)
	// decompositions; small is good.
	CutFraction float64
	// Cert counts the certification work: cores enumerated, stubs collapsed
	// into anchor volumes, core side-assignments visited, and sweep-bound
	// fallbacks. Deterministic — parallel and serial evaluation agree.
	Cert CertStats
}

// clusterSpans returns the vertices of every cluster as slices of one shared
// order array: cluster c owns order[start[c]:start[c+1]]. Two allocations
// total, versus one slice per cluster for Clusters.
func (d *Decomposition) clusterSpans() (order, start []int) {
	start = make([]int, d.Count+1)
	for _, c := range d.Assign {
		start[c+1]++
	}
	for c := 0; c < d.Count; c++ {
		start[c+1] += start[c]
	}
	order = make([]int, len(d.Assign))
	fill := append([]int(nil), start[:d.Count]...)
	for v, c := range d.Assign {
		order[fill[c]] = v
		fill[c]++
	}
	return order, start
}

// evalGrain is the minimum per-chunk cluster count for the parallel Evaluate
// fan-out; at or below it the whole evaluation runs in one sequential call.
const evalGrain = 16

// evalWorker bundles the per-goroutine scratch of the evaluation fan-out: a
// stub-aware certifier for the common (core ≤ limit) case and a lazily
// created closure builder for the sweep-bound fallback on oversized clusters.
type evalWorker struct {
	cert *graph.Certifier
	cb   *graph.ClosureBuilder
}

// EvaluateCtx measures a decomposition. Closure conductances are computed
// exactly for clusters of at most exactLimit core vertices (pass
// graph.MaxExactConductance for the largest exact setting) by the stub-aware
// certifier — boundary stubs are collapsed into anchor volumes in closed
// form, so the limit applies to the cluster size, not the closure size;
// larger clusters contribute a sweep-cut upper bound on the materialized
// closure and clear the PhiExact flag.
//
// Per-cluster measurements (the dominant cost: one core enumeration or
// closure build per cluster) fan out across cores; the reductions over
// clusters happen serially in cluster order, so the result is bit-identical
// to EvaluateSerial.
//
// The per-cluster measurement loop polls ctx between clusters (the
// exact-conductance enumerations make an unbounded evaluation the longest
// non-cancellable stretch of a build otherwise) and returns an
// ErrBuildCancelled-wrapped error when the context is done.
func EvaluateCtx(ctx context.Context, d *Decomposition, exactLimit int) (Report, error) {
	return evaluate(ctx, d, exactLimit, true)
}

// EvaluateSerial is the sequential reference implementation of EvaluateCtx.
func EvaluateSerial(d *Decomposition, exactLimit int) Report {
	r, _ := evaluate(context.Background(), d, exactLimit, false)
	return r
}

func evaluate(ctx context.Context, d *Decomposition, exactLimit int, parallel bool) (Report, error) {
	ctx, sp := obs.StartSpan(ctx, "decomp/evaluate")
	defer sp.End()
	r := Report{Phi: math.Inf(1), PhiExact: true, Rho: d.ReductionFactor(), Count: d.Count, GammaMin: math.Inf(1)}
	// γ_avg: fraction of edge weight crossing between clusters. The float
	// sum stays serial in vertex order regardless of the parallel flag (a
	// reordered sum would not be bit-identical).
	cut, total := 0.0, 0.0
	for u := 0; u < d.G.N(); u++ {
		nbr, w := d.G.Neighbors(u)
		for i, v := range nbr {
			if u < v {
				total += w[i]
				if d.Assign[u] != d.Assign[v] {
					cut += w[i]
				}
			}
		}
	}
	if total > 0 {
		r.CutFraction = cut / total
	}
	order, start := d.clusterSpans()
	phi := make([]float64, d.Count)
	exact := make([]bool, d.Count)
	gamma := make([]float64, d.Count)
	// Each chunk of the fan-out borrows a worker holding a reusable
	// certifier (the common, core ≤ limit case — no closure materialized)
	// and a lazily created closure builder (the sweep-bound fallback).
	pool := sync.Pool{New: func() any {
		return &evalWorker{cert: graph.NewCertifier(d.G)}
	}}
	// Certification counters aggregate per-chunk deltas with integer atomic
	// adds — exact and commutative, so the totals are deterministic.
	var cCores, cStubs, cSubsets, cBounds atomic.Int64
	// stopped lets every chunk of the fan-out abandon its remaining
	// clusters as soon as one of them observes cancellation; the incomplete
	// arrays are discarded, so the early exit cannot skew a returned report.
	var stopped atomic.Bool
	measure := func(lo, hi int) {
		w := pool.Get().(*evalWorker)
		before := w.cert.Stats
		bounds := int64(0)
		defer func() {
			delta := w.cert.Stats
			cCores.Add(delta.Cores - before.Cores)
			cStubs.Add(delta.Stubs - before.Stubs)
			cSubsets.Add(delta.Subsets - before.Subsets)
			cBounds.Add(bounds)
			pool.Put(w)
		}()
		for c := lo; c < hi; c++ {
			if stopped.Load() {
				return
			}
			if ctx.Err() != nil {
				stopped.Store(true)
				return
			}
			vs := order[start[c]:start[c+1]]
			if len(vs) <= exactLimit && len(vs) <= graph.MaxExactConductance {
				phi[c] = mustClusterPhi(w.cert, vs)
				exact[c] = true
			} else {
				if w.cb == nil {
					w.cb = graph.NewClosureBuilder(d.G)
				}
				phi[c] = mustBuilderClosure(w.cb, vs).ConductanceUpperBound()
				bounds++
			}
			// γ per vertex: fraction of v's volume staying inside the
			// cluster; singletons keep nothing inside.
			gm := math.Inf(1)
			if len(vs) == 1 {
				gm = 0
			}
			for _, v := range vs {
				if len(vs) == 1 {
					continue
				}
				nbr, w := d.G.Neighbors(v)
				inside := 0.0
				for i, u := range nbr {
					if d.Assign[u] == c {
						inside += w[i]
					}
				}
				if g := inside / d.G.Vol(v); g < gm {
					gm = g
				}
			}
			gamma[c] = gm
		}
	}
	if parallel {
		par.For(d.Count, evalGrain, measure)
	} else {
		measure(0, d.Count)
	}
	if stopped.Load() || ctx.Err() != nil {
		return Report{}, Cancelled(ctx)
	}
	r.Cert = CertStats{
		Cores:   cCores.Load(),
		Stubs:   cStubs.Load(),
		Subsets: cSubsets.Load(),
		Bounds:  cBounds.Load(),
	}
	for c := 0; c < d.Count; c++ {
		size := start[c+1] - start[c]
		if size > r.MaxClusterSize {
			r.MaxClusterSize = size
		}
		if size == 1 {
			r.Singletons++
		}
		if phi[c] < r.Phi {
			r.Phi = phi[c]
		}
		if !exact[c] {
			r.PhiExact = false
		}
		if gamma[c] < r.GammaMin {
			r.GammaMin = gamma[c]
		}
	}
	if sp != nil {
		sp.Arg("clusters", r.Count)
		sp.Arg("phi", r.Phi)
		sp.Arg("subsets", r.Cert.Subsets)
	}
	publishReport(obs.RegistryFrom(ctx), &r)
	return r, nil
}

// GammaViolations counts, per cluster, the vertices v with
// cap(v, cluster−v) < γ·vol(v) — the vertices that keep a [φ, ρ]
// decomposition from being a full (φ, γ) decomposition. Section 2 of the
// paper proves that a cluster whose closure has conductance ≥ φ contains at
// most one vertex violating γ = φ; MaxGammaViolations verifies exactly that.
func GammaViolations(d *Decomposition, gamma float64) []int {
	out := make([]int, d.Count)
	for v, c := range d.Assign {
		nbr, w := d.G.Neighbors(v)
		inside := 0.0
		for i, u := range nbr {
			if d.Assign[u] == c {
				inside += w[i]
			}
		}
		if inside < gamma*d.G.Vol(v)-1e-12 {
			out[c]++
		}
	}
	return out
}

// MaxGammaViolations returns the maximum per-cluster γ-violation count.
func MaxGammaViolations(d *Decomposition, gamma float64) int {
	m := 0
	for _, v := range GammaViolations(d, gamma) {
		if v > m {
			m = v
		}
	}
	return m
}

// Rebind views the same partition as a decomposition of another graph on the
// same vertex set — the final step of Theorem 2.2, where a decomposition of
// the sparse subgraph B is read as a decomposition of the original graph A
// (clusters connected in a subgraph stay connected in the supergraph; the
// conductance degrades by at most the spectral distance between A and B).
func Rebind(d *Decomposition, a *graph.Graph) (*Decomposition, error) {
	if a.N() != d.G.N() {
		return nil, fmt.Errorf("decomp: Rebind vertex count mismatch %d vs %d", a.N(), d.G.N())
	}
	return &Decomposition{G: a, Assign: d.Assign, Count: d.Count}, nil
}

// SingleCluster returns the trivial decomposition putting every vertex of a
// connected graph into one cluster (used for tiny inputs).
func SingleCluster(g *graph.Graph) *Decomposition {
	return &Decomposition{G: g, Assign: make([]int, g.N()), Count: minClusters(g.N())}
}

func minClusters(n int) int {
	if n == 0 {
		return 0
	}
	return 1
}
