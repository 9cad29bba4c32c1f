// Package spectralcut implements the recursive two-way partitioning
// baseline the paper's introduction analyzes (Kannan, Vempala & Vetta [16]):
// repeatedly split any cluster whose conductance is below a target φ with a
// spectral sweep cut, producing a (φ', γ_avg) decomposition. It exists as
// the top-down comparison point for the paper's bottom-up constructions —
// including its cost profile (an eigensolve per split, no reduction-factor
// guarantee).
package spectralcut

import (
	"context"
	"fmt"
	"sort"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/spectral"
)

// Options controls the recursion.
type Options struct {
	// TargetPhi stops splitting a cluster once its conductance certificate
	// is at least this value.
	TargetPhi float64
	// MinSize stops splitting clusters at or below this many vertices.
	MinSize int
	// MaxClusters aborts the recursion once this many clusters exist
	// (two-way recursion has no reduction guarantee — the paper's point).
	MaxClusters int
	Seed        int64
}

// DefaultOptions targets conductance 0.1 with clusters of ≥ 4 vertices.
func DefaultOptions() Options {
	return Options{TargetPhi: 0.1, MinSize: 4, MaxClusters: 1 << 20, Seed: 1}
}

// Stats reports the work profile of the recursion.
type Stats struct {
	Splits     int // two-way cuts performed
	EigenCalls int // Lanczos solves (the dominant cost)
}

// DecomposeCtx recursively bipartitions g until every cluster certifies
// conductance ≥ TargetPhi (via exact enumeration when small, else a
// spectral sweep-cut upper bound reaching the target is *not* proof, so
// small clusters are certified exactly and large clusters use the Cheeger
// lower bound λ₂/2). The context is checked once per work-queue item (each
// item costs at least one eigensolve or exact enumeration, so the poll
// interval is bounded by a single split's work); cancellation returns an
// error wrapping decomp.ErrBuildCancelled.
func DecomposeCtx(ctx context.Context, g *graph.Graph, opt Options) (*decomp.Decomposition, Stats, error) {
	if opt.TargetPhi <= 0 {
		return nil, Stats{}, fmt.Errorf("spectralcut: TargetPhi must be positive")
	}
	if opt.MinSize < 2 {
		opt.MinSize = 2
	}
	n := g.N()
	d := &decomp.Decomposition{G: g, Assign: make([]int, n)}
	var st Stats
	if n == 0 {
		return d, st, nil
	}
	// Work queue of vertex sets; start from connected components.
	label, k := g.Components()
	queue := make([][]int, k)
	for v, c := range label {
		queue[c] = append(queue[c], v)
	}
	var done [][]int
	for len(queue) > 0 {
		if ctx.Err() != nil {
			return nil, st, decomp.Cancelled(ctx)
		}
		if len(done)+len(queue) >= opt.MaxClusters {
			done = append(done, queue...)
			break
		}
		set := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if len(set) <= opt.MinSize {
			done = append(done, set)
			continue
		}
		sub, back, err := g.InducedSubgraph(set)
		if err != nil {
			return nil, st, err
		}
		if !sub.Connected() {
			// Induced pieces can disconnect after a parent split.
			sl, sk := sub.Components()
			parts := make([][]int, sk)
			for v, c := range sl {
				parts[c] = append(parts[c], back[v])
			}
			queue = append(queue, parts...)
			continue
		}
		phiOK, certified := certify(sub, opt.TargetPhi, &st, opt.Seed)
		if phiOK && certified {
			done = append(done, set)
			continue
		}
		left, right, err := sweepSplit(sub, &st, opt.Seed)
		if err != nil || len(left) == 0 || len(right) == 0 {
			// No usable split: accept the cluster as-is.
			done = append(done, set)
			continue
		}
		queue = append(queue, mapBack(left, back), mapBack(right, back))
	}
	for id, set := range done {
		for _, v := range set {
			d.Assign[v] = id
		}
	}
	d.Count = len(done)
	return d, st, nil
}

// certify decides whether sub's conductance is ≥ target. The bool pair is
// (meets target, certificate is sound). Exact when the stub-free core is
// below the enumeration limit — pendant vertices are placed in closed form
// by the stub-aware certifier, so a large cluster with a small 2-core-like
// interior still gets an exact certificate; Cheeger λ₂/2 otherwise.
func certify(sub *graph.Graph, target float64, st *Stats, seed int64) (bool, bool) {
	if sub.CoreSize() <= graph.MaxExactConductance {
		phi, err := sub.ExactConductance()
		if err != nil {
			// Unreachable: the core limit was just checked.
			panic(err)
		}
		return phi >= target, true
	}
	lo, _, err := spectral.CheegerBounds(sub, seed)
	st.EigenCalls++
	if err != nil {
		return false, false
	}
	return lo >= target, true
}

// sweepSplit computes the Fiedler-style sweep cut of sub and returns the two
// sides (local vertex ids).
func sweepSplit(sub *graph.Graph, st *Stats, seed int64) ([]int, []int, error) {
	_, vecs, err := spectral.Smallest(sub, 1, 0, seed)
	st.EigenCalls++
	st.Splits++
	if err != nil {
		return nil, nil, err
	}
	sqrtD := spectral.SqrtVolumes(sub)
	score := make([]float64, sub.N())
	perm := make([]int, sub.N())
	for v := range perm {
		perm[v] = v
		if sqrtD[v] > 0 {
			score[v] = vecs[0][v] / sqrtD[v]
		}
	}
	sort.Slice(perm, func(i, j int) bool { return score[perm[i]] < score[perm[j]] })
	_, side := sub.SweepCut(perm)
	if len(side) == 0 || len(side) == sub.N() {
		return nil, nil, fmt.Errorf("spectralcut: degenerate sweep cut")
	}
	in := make([]bool, sub.N())
	for _, v := range side {
		in[v] = true
	}
	var left, right []int
	for v := 0; v < sub.N(); v++ {
		if in[v] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right, nil
}

func mapBack(local []int, back []int) []int {
	out := make([]int, len(local))
	for i, v := range local {
		out[i] = back[v]
	}
	return out
}
