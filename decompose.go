package hcd

// The decomposition pipeline: every construction of the paper — Theorem 2.1
// trees, the Theorem 2.2/2.3 sparse-core pipelines, the Section 3.1
// fixed-degree clustering, and the top-down spectral baseline — is reachable
// through one context-aware entry point, DecomposeCtx, which runs the
// method's stages under a decomp.Pipeline and reports per-stage build
// metrics.

import (
	"context"
	"fmt"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/sparsify"
	"hcd/internal/spectralcut"
)

// DecomposeMethod selects which construction DecomposeCtx runs.
type DecomposeMethod int

const (
	// MethodTree: the Theorem 2.1 decomposition of a tree or forest:
	// ρ ≥ 6/5 and every closure conductance ≥ 1/3 (measured ≥ 1/2 on
	// typical weights; see EXPERIMENTS.md E3 on the constant).
	MethodTree DecomposeMethod = iota
	// MethodPlanar: the Theorem 2.2 pipeline on a connected graph —
	// sparsify to a tree-plus-extras subgraph B over a max-weight base
	// tree, strip/cut/tree-decompose B, and rebind the clustering to g. It
	// applies to any graph; planarity (or minor-freeness) only affects the
	// provable constants.
	MethodPlanar
	// MethodMinorFree: the Theorem 2.3 variant — the same pipeline over an
	// AKPW low-stretch base tree.
	MethodMinorFree
	// MethodFixedDegree: the Section 3.1 clustering — perturb, keep
	// per-vertex heaviest edges, split the forest into clusters of
	// ≈ SizeCap. Every cluster has ≥ 2 vertices, so ρ ≥ 2.
	MethodFixedDegree
	// MethodSpectral: the top-down recursive two-way spectral partitioning
	// baseline (Kannan–Vempala–Vetta style) the paper's introduction
	// contrasts with its bottom-up constructions: an eigensolve per split
	// and no reduction-factor guarantee, but direct control of the
	// conductance target.
	MethodSpectral
)

// String names the method for logs and metrics labels.
func (m DecomposeMethod) String() string {
	switch m {
	case MethodTree:
		return "tree"
	case MethodPlanar:
		return "planar"
	case MethodMinorFree:
		return "minor-free"
	case MethodFixedDegree:
		return "fixed-degree"
	case MethodSpectral:
		return "spectral"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// BuildMetrics reports the per-stage costs of one decomposition build — the
// construction-side mirror of SolveMetrics.
type BuildMetrics = decomp.BuildMetrics

// StageMetrics is one named stage's wall time, output size, and scratch
// allocation count inside a BuildMetrics.
type StageMetrics = decomp.StageMetrics

// ErrBuildCancelled: a decomposition build was stopped by its context.
// Errors carrying it also wrap the context's own error (context.Canceled or
// context.DeadlineExceeded), so either sentinel works with errors.Is.
var ErrBuildCancelled = decomp.ErrBuildCancelled

// DecomposeOptions configures DecomposeCtx. Method selects the construction;
// the remaining fields apply to the methods noted on each. The zero value
// runs MethodTree; use DefaultDecomposeOptions for per-method defaults.
type DecomposeOptions struct {
	Method DecomposeMethod

	// Parallel fans the Theorem 2.1 per-bridge case analysis across cores
	// (MethodTree only; results are identical to serial).
	Parallel bool

	// SizeCap bounds cluster sizes for MethodFixedDegree (must be ≥ 2).
	SizeCap int

	// Shards splits the MethodFixedDegree build into that many
	// contiguous vertex-range shards of balanced adjacency mass, clustered
	// concurrently and stitched deterministically at the boundary — the
	// scaling path for ≥10⁶-vertex graphs. 0 or 1 runs the single-pass
	// build (bit-identical to pre-shard behavior); values larger than the
	// graph supports are clamped. The result is a deterministic function
	// of (graph, options), independent of GOMAXPROCS.
	Shards int

	// Seed drives the edge perturbation (MethodFixedDegree), the AKPW tree
	// and off-tree selection (MethodPlanar/MethodMinorFree), and the
	// eigensolves (MethodSpectral).
	Seed int64

	// Base selects the spanning tree for MethodPlanar; MethodMinorFree
	// always uses LowStretchTree.
	Base BaseTree

	// ExtraFraction is the off-tree edge budget of the sparse pipelines, as
	// a fraction of n (MethodPlanar/MethodMinorFree). Zero keeps the bare
	// tree.
	ExtraFraction float64

	// Spectral configures MethodSpectral.
	Spectral SpectralCutOptions

	// SkipReport omits the final evaluate stage; DecomposeResult.Report
	// stays zero.
	SkipReport bool
}

// DefaultDecomposeOptions returns the standard settings for a method: size
// cap 4 (fixed-degree), n/4 extra edges on the method's base tree (sparse
// pipelines), target conductance 0.1 (spectral), seed 1.
func DefaultDecomposeOptions(m DecomposeMethod) DecomposeOptions {
	opt := DecomposeOptions{Method: m, Seed: 1}
	switch m {
	case MethodFixedDegree:
		opt.SizeCap = 4
	case MethodPlanar:
		opt.Base = MaxWeightTree
		opt.ExtraFraction = 0.25
	case MethodMinorFree:
		opt.Base = LowStretchTree
		opt.ExtraFraction = 0.25
	case MethodSpectral:
		opt.Spectral = DefaultSpectralCutOptions()
	}
	return opt
}

// DecomposeResult is the uniform output of DecomposeCtx: the decomposition,
// its quality report (unless SkipReport), and the per-stage build metrics.
// The trailing fields carry method-specific extras and are zero for methods
// that do not produce them.
type DecomposeResult struct {
	D       *Decomposition
	Report  Report       // zero if DecomposeOptions.SkipReport
	Metrics BuildMetrics // per-stage wall time, sizes, scratch allocations

	// Sparse-pipeline extras (MethodPlanar/MethodMinorFree).
	B                  *Graph // the subgraph the decomposition was computed on
	CoreSize, CutEdges int    // |W| and |C| of the strip/cut phase
	AvgStretch         float64

	// SpectralStats reports MethodSpectral's work profile.
	SpectralStats SpectralCutStats

	// ShardStats reports the sharded build's boundary work
	// (MethodFixedDegree with Shards > 1): boundary edges, stitch
	// candidates, merges, rejections.
	ShardStats ShardStats
}

// ShardStats summarizes the boundary work of a sharded fixed-degree build.
type ShardStats = decomp.ShardStats

// DecomposeCtx decomposes g with the method opt selects, under a context.
// Each stage of the build (base tree, sparsify, strip/cut core, tree
// decomposition, rebind, evaluate — whichever the method uses) polls
// cancellation at bounded intervals and records its wall time, output size,
// and scratch allocations into the returned BuildMetrics. A cancelled build
// returns an error wrapping both ErrBuildCancelled and the context's error.
func DecomposeCtx(ctx context.Context, g *Graph, opt DecomposeOptions) (*DecomposeResult, error) {
	if obs.TracerFrom(ctx) != nil {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, "decompose/"+opt.Method.String())
		defer sp.End()
	}
	p := decomp.NewPipeline(ctx)
	res := &DecomposeResult{}
	var err error
	switch opt.Method {
	case MethodTree:
		err = buildTreeMethod(p, g, opt, res)
	case MethodPlanar, MethodMinorFree:
		err = buildSparseMethod(p, g, opt, res)
	case MethodFixedDegree:
		err = buildFixedDegreeMethod(p, g, opt, res)
	case MethodSpectral:
		err = buildSpectralMethod(p, g, opt, res)
	default:
		return nil, fmt.Errorf("hcd: unknown decomposition method %d", int(opt.Method))
	}
	if err == nil && !opt.SkipReport {
		err = p.Run(decomp.StageEvaluate, func(ctx context.Context) (decomp.StageInfo, error) {
			rep, rerr := decomp.EvaluateCtx(ctx, res.D, graph.MaxExactConductance)
			if rerr != nil {
				return decomp.StageInfo{Vertices: g.N(), Edges: g.M()}, rerr
			}
			res.Report = rep
			p.Metrics.Cert = rep.Cert
			return decomp.StageInfo{Vertices: g.N(), Edges: g.M()}, nil
		})
	}
	res.Metrics = p.Metrics
	res.Metrics.Publish(obs.RegistryFrom(ctx))
	if err != nil {
		return nil, err
	}
	return res, nil
}

func buildTreeMethod(p *decomp.Pipeline, g *Graph, opt DecomposeOptions, res *DecomposeResult) error {
	return p.Run(decomp.StageTree, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		if opt.Parallel {
			res.D, err = decomp.TreeParallelCtx(ctx, g)
		} else {
			res.D, err = decomp.TreeCtx(ctx, g)
		}
		return stageInfoOf(res.D), err
	})
}

func buildFixedDegreeMethod(p *decomp.Pipeline, g *Graph, opt DecomposeOptions, res *DecomposeResult) error {
	if opt.Shards <= 1 || g.N() < 2*opt.Shards {
		// Single-pass build: bit-identical to the pre-shard pipeline.
		res.ShardStats = decomp.ShardStats{Shards: 1}
		return p.Run(decomp.StageCluster, func(ctx context.Context) (decomp.StageInfo, error) {
			var err error
			res.D, err = decomp.FixedDegreeCtx(ctx, g, opt.SizeCap, opt.Seed)
			return stageInfoOf(res.D), err
		})
	}
	var shards []graph.Shard
	if err := p.Run(decomp.StagePartition, func(ctx context.Context) (decomp.StageInfo, error) {
		shards = graph.PartitionShards(g, opt.Shards)
		return decomp.StageInfo{Vertices: g.N(), Edges: len(shards)}, nil
	}); err != nil {
		return err
	}
	if err := p.Run(decomp.StageCluster, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		res.D, res.ShardStats, err = decomp.ClusterShards(ctx, g, shards, opt.SizeCap, opt.Seed)
		return stageInfoOf(res.D), err
	}); err != nil {
		return err
	}
	return p.Run(decomp.StageStitch, func(ctx context.Context) (decomp.StageInfo, error) {
		err := decomp.StitchShards(ctx, res.D, shards, opt.SizeCap, opt.Seed, &res.ShardStats)
		return stageInfoOf(res.D), err
	})
}

func buildSpectralMethod(p *decomp.Pipeline, g *Graph, opt DecomposeOptions, res *DecomposeResult) error {
	return p.Run(decomp.StageSpectral, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		res.D, res.SpectralStats, err = spectralcut.DecomposeCtx(ctx, g, opt.Spectral)
		return stageInfoOf(res.D), err
	})
}

// buildSparseMethod runs the Theorem 2.2/2.3 pipeline stage by stage:
// base-tree → sparsify → strip-cut-core → tree-decompose → rebind.
func buildSparseMethod(p *decomp.Pipeline, g *Graph, opt DecomposeOptions, res *DecomposeResult) error {
	sopt := sparsify.Options{Base: opt.Base, ExtraFraction: opt.ExtraFraction, Seed: opt.Seed}
	if opt.Method == MethodMinorFree {
		sopt.Base = sparsify.LowStretchTree
	}
	var tree []Edge
	if err := p.Run(decomp.StageBaseTree, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		tree, err = sparsify.BaseTreeCtx(ctx, g, sopt)
		return decomp.StageInfo{Vertices: g.N(), Edges: len(tree)}, err
	}); err != nil {
		return err
	}
	var sres *sparsify.Result
	if err := p.Run(decomp.StageSparsify, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		sres, err = sparsify.FromTreeCtx(ctx, g, tree, sopt)
		if err != nil {
			return decomp.StageInfo{}, err
		}
		return decomp.StageInfo{Vertices: sres.B.N(), Edges: sres.B.M()}, nil
	}); err != nil {
		return err
	}
	res.B = sres.B
	res.AvgStretch = sres.AvgStretch
	var forest *Graph
	if err := p.Run(decomp.StageCoreCut, func(ctx context.Context) (decomp.StageInfo, error) {
		var stats decomp.SparseStats
		var err error
		forest, stats, err = decomp.CoreCutCtx(ctx, sres.B)
		if err != nil {
			return decomp.StageInfo{}, err
		}
		res.CoreSize, res.CutEdges = stats.CoreSize, stats.CutEdges
		return decomp.StageInfo{Vertices: forest.N(), Edges: forest.M()}, nil
	}); err != nil {
		return err
	}
	var td *Decomposition
	if err := p.Run(decomp.StageTree, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		td, err = decomp.TreeCtx(ctx, forest)
		return stageInfoOf(td), err
	}); err != nil {
		return err
	}
	return p.Run(decomp.StageRebind, func(context.Context) (decomp.StageInfo, error) {
		db := &decomp.Decomposition{G: sres.B, Assign: td.Assign, Count: td.Count}
		var err error
		res.D, err = decomp.Rebind(db, g)
		return stageInfoOf(res.D), err
	})
}

// stageInfoOf sizes a stage by its decomposition output (nil-safe for failed
// stages).
func stageInfoOf(d *Decomposition) decomp.StageInfo {
	if d == nil {
		return decomp.StageInfo{}
	}
	return decomp.StageInfo{Vertices: d.G.N(), Edges: d.G.M()}
}
