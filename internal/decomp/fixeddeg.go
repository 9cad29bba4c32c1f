package decomp

import (
	"context"
	"fmt"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/par"
	"hcd/internal/treealg"
)

// FixedDegreeCtx implements the Section 3.1 clustering:
//
//	[1] perturb each edge weight by an independent random factor in (1, 2);
//	[2] every vertex keeps its heaviest perturbed incident edge — the union
//	    is a forest by the unimodality argument;
//	[3] split each forest tree into clusters of at most sizeCap vertices.
//
// Every vertex lands in a cluster of size ≥ 2, so the reduction factor is at
// least 2 (the paper's ρ). The perturbation is a deterministic hash of the
// edge and seed, so step [2] is one independent pass per vertex — the
// "embarrassingly parallel" construction of Remark 1 — and runs across
// cores. For a degree-d graph the paper certifies conductance Ω(1/(d²k));
// EvaluateCtx measures the actual value.
//
// sizeCap must be at least 2. Clusters may exceed sizeCap by a small factor
// at branchy vertices (at most 1 + d·(sizeCap−1) vertices); the cap controls
// the expected size, which is what the reduction/condition trade-off needs.
//
// The sequential passes poll cancellation at bounded intervals and the
// parallel scan is bracketed by checks, so a cancelled build returns an
// error wrapping ErrBuildCancelled promptly.
func FixedDegreeCtx(ctx context.Context, g *graph.Graph, sizeCap int, seed int64) (*Decomposition, error) {
	if sizeCap < 2 {
		return nil, fmt.Errorf("decomp: sizeCap must be ≥ 2, got %d", sizeCap)
	}
	n := g.N()
	d := &Decomposition{G: g, Assign: make([]int, n)}
	if n == 0 {
		return d, nil
	}
	// Isolated vertices cannot be clustered with anyone; each becomes a
	// singleton (they contribute no edges, hence no conductance constraint).
	// [2] Per-vertex heaviest perturbed edge, in parallel.
	bestTo := make([]int, n)
	par.For(n, 2048, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			bestTo[v] = -1
			nbr, w := g.Neighbors(v)
			bestW := 0.0
			for i, u := range nbr {
				pw := w[i] * perturbFactor(v, u, n, seed)
				// Deterministic tie-break on the neighbor id keeps the
				// perturbed order total even under float ties.
				if bestTo[v] < 0 || pw > bestW || (pw == bestW && u < bestTo[v]) {
					bestTo[v], bestW = u, pw
				}
			}
		}
	})
	if ctx.Err() != nil {
		return nil, Cancelled(ctx)
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.PerturbCorrupt) {
		// Chaos: wipe the heaviest-edge selection, as if the parallel scan
		// produced garbage. Every vertex becomes an isolated singleton, so
		// the build "succeeds" with no reduction — the degenerate shape the
		// hierarchy's no-reduction guard must catch.
		for i := range bestTo {
			bestTo[i] = -1
		}
	}
	fEdges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		if err := poll(ctx, v); err != nil {
			return nil, err
		}
		u := bestTo[v]
		if u < 0 {
			continue
		}
		// Emit each undirected edge once: the lower endpoint owns it unless
		// it did not select it, in which case the upper endpoint emits.
		if v < u || bestTo[u] != v {
			w, _ := g.Weight(v, u)
			fEdges = append(fEdges, graph.Edge{U: minOf(v, u), V: maxOf(v, u), W: w})
		}
	}
	forest, err := graph.NewFromUniqueEdges(n, fEdges)
	if err != nil {
		return nil, err
	}
	if !forest.IsForest() {
		return nil, fmt.Errorf("decomp: heaviest-edge graph contains a cycle (tie-breaking failure)")
	}
	// [3] Split each tree into clusters of about sizeCap vertices.
	rooted, err := treealg.RootForest(forest)
	if err != nil {
		return nil, err
	}
	d.Count, err = splitForest(ctx, forest, rooted, sizeCap, d.Assign)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// splitForest performs step [3] of the Section 3.1 clustering: walk the
// rooted forest bottom-up, emitting a cluster whenever the pending subtree
// reaches sizeCap vertices, then sweep the roots for leftovers. It writes
// cluster ids starting at 0 into assign (len = forest vertex count) and
// returns the number of clusters. Shared by the single-pass build above and
// the per-shard build in shard.go, which runs it on shard-local forests.
func splitForest(ctx context.Context, forest *graph.Graph, rooted *treealg.Rooted, sizeCap int, assign []int) (int, error) {
	n := len(assign)
	for i := range assign {
		assign[i] = -1
	}
	count := 0
	children := rooted.Children()
	pend := make([]int, n)
	emit := func(v int) {
		id := count
		count++
		stack := []int{v}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			assign[x] = id
			for _, c := range children[x] {
				if assign[c] < 0 {
					stack = append(stack, c)
				}
			}
		}
	}
	for i := len(rooted.Order) - 1; i >= 0; i-- {
		if err := poll(ctx, i); err != nil {
			return 0, err
		}
		v := rooted.Order[i]
		pend[v] = 1
		for _, c := range children[v] {
			if assign[c] < 0 {
				pend[v] += pend[c]
			}
		}
		if pend[v] >= sizeCap {
			emit(v)
			pend[v] = 0
		}
	}
	for _, root := range rooted.Roots {
		if assign[root] >= 0 {
			continue
		}
		if pend[root] >= 2 {
			emit(root)
			continue
		}
		// A leftover singleton root: merge it into the cluster of an
		// adjacent forest vertex; isolated vertices become singletons.
		merged := false
		nbr, _ := forest.Neighbors(root)
		for _, u := range nbr {
			if assign[u] >= 0 {
				assign[root] = assign[u]
				merged = true
				break
			}
		}
		if !merged {
			emit(root)
		}
	}
	return count, nil
}

// perturbFactor returns a deterministic pseudo-random factor in (1, 2) for
// the unordered edge (u, v) under the given seed, via a splitmix64 hash. It
// is symmetric in u and v, so both endpoints see the same perturbed weight
// without any shared state — the property that makes the scan of Remark 1
// one independent pass per matrix column.
func perturbFactor(u, v, n int, seed int64) float64 {
	if u > v {
		u, v = v, u
	}
	x := uint64(u)*uint64(n) + uint64(v) + uint64(seed)*0x9e3779b97f4a7c15
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + float64(x>>11)/float64(1<<53)
}

func minOf(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
