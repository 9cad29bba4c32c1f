package decomp

import (
	"context"
	"fmt"
	"math"
	"sync"

	"hcd/internal/graph"
	"hcd/internal/par"
	"hcd/internal/treealg"
)

// TreeCtx computes the Theorem 2.1 decomposition of a tree or forest.
//
// The construction follows the paper: compute the 3-critical vertices of
// each (rooted) component; the non-critical vertices then form maximal
// connected groups of at most three vertices ("3-bridge interiors"). Each
// group is clustered by the paper's case analysis — kept whole, split after
// cutting its lightest separating edge, or folded into the clusters of
// adjacent critical vertices — except that instead of hard-coding the figure
// cases we enumerate the (at most four) feasible local partitions and pick
// the one maximizing the minimum closure conductance. Components with at
// most three vertices become single clusters.
//
// On trees with ≥ 2 vertices the result has reduction factor ρ ≥ 6/5 and
// every closure conductance is at least 1/3 (the paper states 1/2; the
// worst-case constant certified by the local cut analysis is 1/3, and
// measured values on non-adversarial weights sit at 1/2 or above — see
// EXPERIMENTS.md E3).
//
// Cancellation mid-build returns an error wrapping ErrBuildCancelled (and
// the context's own error) within one poll interval.
func TreeCtx(ctx context.Context, g *graph.Graph) (*Decomposition, error) {
	return treeImpl(ctx, g, false)
}

// TreeParallelCtx is TreeCtx with the per-bridge case analysis fanned out
// across cores: 3-critical vertices come from the parallel machinery, the
// non-critical groups are independent and evaluated concurrently, and only
// the final cluster-id assignment is sequential — mirroring the "O(1)
// parallel time after the 3-critical computation" claim of Theorem 2.1.
// Results are identical to TreeCtx.
func TreeParallelCtx(ctx context.Context, g *graph.Graph) (*Decomposition, error) {
	return treeImpl(ctx, g, true)
}

func treeImpl(ctx context.Context, g *graph.Graph, parallel bool) (*Decomposition, error) {
	if !g.IsForest() {
		return nil, fmt.Errorf("decomp: Tree requires an acyclic graph")
	}
	n := g.N()
	d := &Decomposition{G: g, Assign: make([]int, n)}
	if n == 0 {
		return d, nil
	}
	rooted, err := treealg.RootForest(g)
	if err != nil {
		return nil, err
	}
	crit := rooted.Critical3()
	compLabel, ncomp := g.Components()
	compSize := make([]int, ncomp)
	for _, c := range compLabel {
		compSize[c]++
	}
	for i := range d.Assign {
		d.Assign[i] = -1
	}
	// Small components become single clusters.
	smallCluster := make([]int, ncomp)
	for i := range smallCluster {
		smallCluster[i] = -1
	}
	for v := 0; v < n; v++ {
		if compSize[compLabel[v]] <= 3 {
			if smallCluster[compLabel[v]] < 0 {
				smallCluster[compLabel[v]] = d.Count
				d.Count++
			}
			d.Assign[v] = smallCluster[compLabel[v]]
		}
	}
	// One cluster per critical vertex (in large components).
	critCluster := make([]int, n)
	for v := 0; v < n; v++ {
		critCluster[v] = -1
		if crit[v] && d.Assign[v] < 0 {
			critCluster[v] = d.Count
			d.Assign[v] = d.Count
			d.Count++
		}
	}
	b := &treeBuilder{g: g, d: d, crit: crit, critCluster: critCluster}
	b.certs.New = func() any { return graph.NewCertifier(g) }
	// Collect the maximal non-critical groups, then choose each group's
	// best local partition (a pure, independent computation) and apply the
	// choices. The choose phase fans out across cores when requested.
	seen := make([]bool, n)
	var groups [][]int
	for v := 0; v < n; v++ {
		if err := poll(ctx, v); err != nil {
			return nil, err
		}
		if seen[v] || crit[v] || d.Assign[v] >= 0 {
			continue
		}
		group := collectGroup(g, crit, seen, v)
		if len(group) > 3 {
			return nil, fmt.Errorf("decomp: internal error: non-critical group of size %d", len(group))
		}
		groups = append(groups, group)
	}
	choices := make([]candidate, len(groups))
	errs := make([]error, len(groups))
	choose := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := poll(ctx, i); err != nil {
				errs[i] = err
				return
			}
			choices[i], errs[i] = b.chooseCandidate(groups[i])
		}
	}
	if parallel {
		par.For(len(groups), 64, choose)
	} else {
		choose(0, len(groups))
	}
	if ctx.Err() != nil {
		return nil, Cancelled(ctx)
	}
	for i := range groups {
		if errs[i] != nil {
			return nil, errs[i]
		}
		b.apply(choices[i])
	}
	return d, nil
}

// collectGroup gathers the maximal connected non-critical group containing v.
func collectGroup(g *graph.Graph, crit []bool, seen []bool, v int) []int {
	stack := []int{v}
	seen[v] = true
	var group []int
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		group = append(group, x)
		nbr, _ := g.Neighbors(x)
		for _, u := range nbr {
			if !crit[u] && !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return group
}

type treeBuilder struct {
	g           *graph.Graph
	d           *Decomposition
	crit        []bool
	critCluster []int
	certs       sync.Pool // *graph.Certifier: per-goroutine scoring scratch
}

// candidate is one feasible local partition of a non-critical group: some
// connected subsets become clusters of their own, the rest of the vertices
// join the cluster of an adjacent critical vertex.
type candidate struct {
	own      [][]int
	assignV  []int
	assignC  []int
	minScore float64
}

// chooseCandidate evaluates every feasible local partition of a group and
// returns the one maximizing the minimum closure-conductance score. It is a
// pure function of the (immutable) graph and critical structure, so groups
// can be chosen in parallel.
func (b *treeBuilder) chooseCandidate(group []int) (candidate, error) {
	var cands []candidate
	switch len(group) {
	case 1:
		if _, ok := b.addAssign(&cands, nil, group); !ok {
			return candidate{}, fmt.Errorf("decomp: isolated non-critical vertex %d has no critical neighbor", group[0])
		}
	case 2:
		b.addOwn(&cands, [][]int{group}, nil)
		b.addAssign(&cands, nil, group)
	case 3:
		// A 3-vertex tree group is a path end–mid–end.
		mid, ends := b.pathShape(group)
		b.addOwn(&cands, [][]int{group}, nil)
		b.addOwn(&cands, [][]int{{mid, ends[0]}}, []int{ends[1]})
		b.addOwn(&cands, [][]int{{mid, ends[1]}}, []int{ends[0]})
		b.addAssign(&cands, nil, group)
	}
	if len(cands) == 0 {
		return candidate{}, fmt.Errorf("decomp: no feasible clustering for group %v", group)
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.minScore > best.minScore {
			best = c
		}
	}
	return best, nil
}

// apply commits a chosen candidate: own-sets become fresh clusters, the
// rest join their critical neighbors' clusters.
func (b *treeBuilder) apply(best candidate) {
	for _, set := range best.own {
		id := b.d.Count
		b.d.Count++
		for _, v := range set {
			b.d.Assign[v] = id
		}
	}
	for i, v := range best.assignV {
		b.d.Assign[v] = b.critCluster[best.assignC[i]]
	}
}

// pathShape identifies the middle and end vertices of a 3-vertex tree group.
func (b *treeBuilder) pathShape(group []int) (mid int, ends [2]int) {
	in := map[int]bool{group[0]: true, group[1]: true, group[2]: true}
	ei := 0
	mid = -1
	for _, v := range group {
		nbr, _ := b.g.Neighbors(v)
		internal := 0
		for _, u := range nbr {
			if in[u] {
				internal++
			}
		}
		if internal == 2 {
			mid = v
		} else {
			ends[ei] = v
			ei++
		}
	}
	return mid, ends
}

// addOwn appends a candidate consisting of own-clusters plus assignments for
// the leftover vertices; it is dropped if a leftover has no critical
// neighbor. Own clusters are scored by their exact closure conductance,
// certified directly on the cluster core (no closure materialized).
func (b *treeBuilder) addOwn(cands *[]candidate, own [][]int, leftover []int) {
	cert := b.certs.Get().(*graph.Certifier)
	defer b.certs.Put(cert)
	c := candidate{own: own, minScore: math.Inf(1)}
	for _, set := range own {
		if len(set) > graph.MaxExactConductance {
			// Cannot happen for groups of ≤ 3 tree vertices; guard anyway.
			return
		}
		if phi := mustClusterPhi(cert, set); phi < c.minScore {
			c.minScore = phi
		}
	}
	for _, v := range leftover {
		cv, score, ok := b.bestCritical(v)
		if !ok {
			return
		}
		c.assignV = append(c.assignV, v)
		c.assignC = append(c.assignC, cv)
		if score < c.minScore {
			c.minScore = score
		}
	}
	*cands = append(*cands, c)
}

// addAssign appends the all-assigned candidate (own must be nil); it reports
// whether every vertex had a critical neighbor.
func (b *treeBuilder) addAssign(cands *[]candidate, own [][]int, vs []int) (candidate, bool) {
	c := candidate{own: own, minScore: math.Inf(1)}
	for _, v := range vs {
		cv, score, ok := b.bestCritical(v)
		if !ok {
			return c, false
		}
		c.assignV = append(c.assignV, v)
		c.assignC = append(c.assignC, cv)
		if score < c.minScore {
			c.minScore = score
		}
	}
	*cands = append(*cands, c)
	return c, true
}

// bestCritical returns the critical neighbor c of v maximizing the branch
// score a/(a+2s), where a = w(v,c) and s = vol(v) − a is the weight v brings
// into the critical cluster's closure as pendant stubs. The score lower-
// bounds the closure conductance contribution of the new branch.
func (b *treeBuilder) bestCritical(v int) (int, float64, bool) {
	nbr, w := b.g.Neighbors(v)
	best, bestScore := -1, -1.0
	for i, u := range nbr {
		if !b.crit[u] || b.critCluster[u] < 0 {
			continue
		}
		a := w[i]
		s := b.g.Vol(v) - a
		score := a / (a + 2*s)
		if score > bestScore {
			best, bestScore = u, score
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestScore, true
}
