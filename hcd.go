// Package hcd is a Go implementation of Koutis & Miller, "Graph partitioning
// into isolated, high conductance clusters: theory, computation and
// applications to preconditioning" (SPAA 2008).
//
// It decomposes weighted graphs into vertex-disjoint clusters whose closures
// (induced subgraph + one stub per boundary edge) all have conductance ≥ φ
// ([φ, ρ] decompositions), and uses the decompositions to build Steiner-graph
// preconditioners for graph Laplacian systems — including the recursive,
// multilevel variant that prefigures combinatorial multigrid.
//
// Quick start:
//
//	g, _ := hcd.NewGraph(n, edges)
//	r, _ := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
//	rep := hcd.Evaluate(r.D)                     // measured φ, ρ, γ
//	p, _ := hcd.NewSteinerPreconditioner(r.D)    // Section 3 preconditioner
//	res, _ := hcd.SolvePCGCtx(ctx, g, b, p, hcd.DefaultSolveOptions())
//
// Every operation has one entry point, and each one that can run long takes
// a context: DecomposeCtx reaches every decomposition method (reporting
// per-stage build metrics and honoring cancellation), Do and its
// single-right-hand-side forms SolveCtx, SolvePCGCtx and SolveChebyshevCtx
// run every solve, and NewHierarchyCtx and BuildLaminarCtx build the
// multilevel structures.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package hcd

import (
	"context"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/laminar"
	"hcd/internal/sparsify"
	"hcd/internal/spectralcut"
)

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Graph is an immutable weighted undirected graph in CSR form.
type Graph = graph.Graph

// NewGraph builds a graph on n vertices from an edge list; parallel edges
// merge by weight summation, self-loops and non-positive weights error.
// Negative vertex counts and out-of-range endpoints return errors wrapping
// ErrBadDimension.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.NewFromEdges(n, edges)
}

// Decomposition is a partition of a graph's vertices into clusters.
type Decomposition = decomp.Decomposition

// Report summarizes decomposition quality (φ, ρ, γ, sizes).
type Report = decomp.Report

// MaxExactConductance is the largest cluster core (vertex count, stubs
// excluded) for which Evaluate certifies closure conductance exactly. The
// stub-aware certifier collapses boundary stubs into anchor volumes in
// closed form, so the limit applies to the cluster size — a 4-vertex cluster
// is certified in 2³ enumeration steps no matter how many boundary edges
// its closure has.
const MaxExactConductance = graph.MaxExactConductance

// CertStats counts exact-certification work (cores enumerated, stubs
// collapsed, core side-assignments visited, sweep-bound fallbacks); it is
// reported in Report.Cert and BuildMetrics.Cert.
type CertStats = graph.CertStats

// ClusterStats describes one cluster (size, volume, boundary, conductance).
type ClusterStats = decomp.ClusterStats

// Details returns per-cluster statistics sorted by ascending closure
// conductance — the problematic clusters first.
func Details(d *Decomposition) []ClusterStats {
	return decomp.Details(d, graph.MaxExactConductance)
}

// MaxGammaViolations returns the largest per-cluster count of vertices
// violating cap(v, C−v) ≥ γ·vol(v); Section 2 proves it is at most 1 when γ
// is the decomposition's closure conductance.
func MaxGammaViolations(d *Decomposition, gamma float64) int {
	return decomp.MaxGammaViolations(d, gamma)
}

// AgreementReport holds the external clustering metrics of one comparison:
// purity of a against b and the Rand index over vertex pairs.
type AgreementReport = decomp.AgreementReport

// Agreement scores a cluster assignment against another (e.g. planted
// ground truth), returning the metrics as a single report struct.
func Agreement(a, b []int) (AgreementReport, error) {
	return decomp.Agreement(a, b)
}

// MergeSingletons greedily folds singleton clusters into their heaviest
// neighbor cluster whenever the merged closure's conductance stays ≥ minPhi
// (certified exactly). It improves ρ at no conductance cost below the floor
// and returns the new decomposition with the number of merges.
func MergeSingletons(d *Decomposition, minPhi float64) (*Decomposition, int) {
	return decomp.MergeSingletons(d, minPhi, graph.MaxExactConductance)
}

// BaseTree selects the spanning tree for the sparse-subgraph pipelines.
type BaseTree = sparsify.BaseTree

// Base tree choices for MethodPlanar and the subgraph preconditioners
// (MethodMinorFree always uses LowStretchTree).
const (
	MaxWeightTree  = sparsify.MaxWeightTree
	LowStretchTree = sparsify.LowStretchTree
)

// PlanarOptions configures the sparsified subgraph B of the subgraph
// preconditioners (the same tree-plus-extras construction the Theorem 2.2
// pipeline decomposes).
type PlanarOptions struct {
	Base BaseTree
	// ExtraFraction controls the off-tree edges kept in the subgraph B
	// (fraction of n); the paper's "constant fraction".
	ExtraFraction float64
	Seed          int64
}

// DefaultPlanarOptions uses a max-weight base tree with n/4 extra edges.
func DefaultPlanarOptions() PlanarOptions {
	return PlanarOptions{Base: MaxWeightTree, ExtraFraction: 0.25, Seed: 1}
}

// Evaluate measures a decomposition: minimum closure conductance φ (exact
// for clusters of up to MaxExactConductance core vertices, however many
// stubs their closures carry), reduction factor ρ, per-vertex retention γ,
// size statistics, and certification work counters.
func Evaluate(d *Decomposition) Report {
	// Only cancellation makes EvaluateCtx fail, and TODO never cancels.
	rep, _ := decomp.EvaluateCtx(context.TODO(), d, graph.MaxExactConductance)
	return rep
}

// Validate checks the partition invariants (coverage, range, connectivity).
func Validate(d *Decomposition) error { return d.Validate() }

// SpectralCutOptions configures the top-down recursive spectral baseline.
type SpectralCutOptions = spectralcut.Options

// SpectralCutStats reports its work profile (splits, eigensolves).
type SpectralCutStats = spectralcut.Stats

// DefaultSpectralCutOptions targets conductance 0.1.
func DefaultSpectralCutOptions() SpectralCutOptions { return spectralcut.DefaultOptions() }

// LaminarTree is a laminar hierarchy of decompositions with composition,
// refinement checks, and per-level quality reports.
type LaminarTree = laminar.Laminar

// BuildLaminarCtx clusters g recursively (Section 3.1 at every level) until
// the quotient has at most coarse vertices, returning the full hierarchy. A
// cancelled build returns an error wrapping ErrBuildCancelled and the
// context's error.
func BuildLaminarCtx(ctx context.Context, g *Graph, sizeCap, coarse int, seed int64) (*LaminarTree, error) {
	return laminar.BuildCtx(ctx, g, sizeCap, coarse, seed)
}
