// Package lowstretch builds low-stretch spanning trees in the style of
// Alon–Karp–Peleg–West (the role played by Elkin–Emek–Spielman–Teng trees in
// Theorem 2.3) and measures edge stretch over a tree, the quantity that
// governs subgraph-preconditioner quality and drives the off-tree edge
// selection of internal/sparsify.
//
// The stretch of an off-tree edge e = (u,v) with weight w is
// w · Σ_{f ∈ treePath(u,v)} 1/w(f): its weight times the tree-path
// resistance between its endpoints.
package lowstretch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hcd/internal/graph"
)

// AKPWCtx returns the edges of a spanning forest of g with low average
// stretch. The algorithm processes edges in increasing resistance classes;
// in each round it grows low-expansion BFS balls over the contracted
// cluster graph, adds the BFS tree edges to the forest, and contracts. The
// rng seed only affects ball-growing start order. Cancellation is polled
// once per ball-growing round (O(log n) rounds, each one pass over the
// active edges).
func AKPWCtx(ctx context.Context, g *graph.Graph, seed int64) ([]graph.Edge, error) {
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	edges := g.Edges()
	if len(edges) == 0 {
		return nil, nil
	}
	// Sort by resistance ascending (heaviest edges first).
	sort.Slice(edges, func(i, j int) bool { return edges[i].W > edges[j].W })
	rng := rand.New(rand.NewSource(seed))
	logN := math.Log2(float64(n) + 2)
	beta := 1.0 / (2 * logN) // ball expansion threshold
	// Geometric resistance classes relative to the smallest resistance.
	rMin := 1 / edges[0].W
	base := math.Max(4, 2*logN)
	classOf := func(w float64) int {
		r := 1 / w
		return int(math.Log(r/rMin)/math.Log(base)) + 1
	}
	cluster := make([]int, n)
	for i := range cluster {
		cluster[i] = i
	}
	var forest []graph.Edge
	next := 0 // next unprocessed edge (edges sorted by class)
	clusters := n
	for round := 1; clusters > 1; round++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("lowstretch: cancelled: %w", ctx.Err())
		}
		// Activate all edges whose class is ≤ round.
		for next < len(edges) && classOf(edges[next].W) <= round {
			next++
		}
		active := edges[:next]
		merged := growBalls(n, active, cluster, beta, rng, &forest)
		clusters -= merged
		if merged == 0 && next == len(edges) {
			break // no cross-cluster edges remain: g is disconnected
		}
	}
	return forest, nil
}

// growBalls performs one AKPW round: build the cluster multigraph over the
// active edges, grow low-expansion balls, append the corresponding original
// tree edges to forest, and relabel cluster ids. It returns the number of
// cluster merges performed.
func growBalls(n int, active []graph.Edge, cluster []int, beta float64, rng *rand.Rand, forest *[]graph.Edge) int {
	// Adjacency over cluster ids, keeping one original edge per cluster pair
	// (the heaviest seen, which minimizes added resistance).
	type arc struct {
		to   int
		edge graph.Edge
	}
	adj := make(map[int][]arc)
	type pairKey struct{ a, b int }
	bestPair := make(map[pairKey]graph.Edge)
	for _, e := range active {
		cu, cv := cluster[e.U], cluster[e.V]
		if cu == cv {
			continue
		}
		k := pairKey{cu, cv}
		if cu > cv {
			k = pairKey{cv, cu}
		}
		if cur, ok := bestPair[k]; !ok || e.W > cur.W {
			bestPair[k] = e
		}
	}
	// Fixed iteration order: ranging over the map directly would make the
	// arc lists — and so the balls and the tree — vary run to run.
	pairs := make([]pairKey, 0, len(bestPair))
	for k := range bestPair {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, k := range pairs {
		e := bestPair[k]
		adj[k.a] = append(adj[k.a], arc{to: k.b, edge: e})
		adj[k.b] = append(adj[k.b], arc{to: k.a, edge: e})
	}
	if len(adj) == 0 {
		return 0
	}
	nodes := make([]int, 0, len(adj))
	for c := range adj {
		nodes = append(nodes, c)
	}
	sort.Ints(nodes)
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	assigned := make(map[int]int) // cluster id -> ball root
	merges := 0
	for _, s := range nodes {
		if _, done := assigned[s]; done {
			continue
		}
		// Grow a BFS ball from s while its boundary stays large relative to
		// its interior edge count (the AKPW low-expansion stopping rule).
		assigned[s] = s
		frontier := []int{s}
		interiorEdges := 0
		for len(frontier) > 0 {
			boundary := 0
			for _, c := range frontier {
				for _, a := range adj[c] {
					if _, done := assigned[a.to]; !done {
						boundary++
					}
				}
			}
			if boundary == 0 {
				break
			}
			if interiorEdges > 0 && float64(boundary) <= beta*float64(interiorEdges)+1 {
				break
			}
			var nextFrontier []int
			for _, c := range frontier {
				for _, a := range adj[c] {
					if _, done := assigned[a.to]; done {
						continue
					}
					assigned[a.to] = s
					nextFrontier = append(nextFrontier, a.to)
					*forest = append(*forest, a.edge)
					merges++
				}
			}
			for _, c := range nextFrontier {
				interiorEdges += len(adj[c])
			}
			frontier = nextFrontier
		}
	}
	// Relabel every vertex to its ball root.
	for v := 0; v < n; v++ {
		if r, ok := assigned[cluster[v]]; ok {
			cluster[v] = r
		}
	}
	return merges
}

// TreeMetric answers tree-path resistance queries in O(log n) via binary
// lifting, after O(n log n) preprocessing.
type TreeMetric struct {
	n      int
	depth  []int
	up     [][]int   // up[k][v] = 2^k-th ancestor (-1 past the root)
	resist []float64 // resistance from v to its component root
	comp   []int
}

// NewTreeMetric indexes a forest given by its edges over n vertices.
func NewTreeMetric(n int, treeEdges []graph.Edge) (*TreeMetric, error) {
	f := graph.MustFromEdges(n, treeEdges)
	if !f.IsForest() {
		return nil, fmt.Errorf("lowstretch: edges contain a cycle")
	}
	t := &TreeMetric{n: n, depth: make([]int, n), resist: make([]float64, n)}
	t.comp, _ = f.Components()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbr, w := f.Neighbors(v)
			for i, u := range nbr {
				if !seen[u] {
					seen[u] = true
					parent[u] = v
					t.depth[u] = t.depth[v] + 1
					t.resist[u] = t.resist[v] + 1/w[i]
					stack = append(stack, u)
				}
			}
		}
	}
	levels := 1
	for (1 << levels) < n+1 {
		levels++
	}
	t.up = make([][]int, levels)
	t.up[0] = parent
	for k := 1; k < levels; k++ {
		t.up[k] = make([]int, n)
		for v := 0; v < n; v++ {
			if a := t.up[k-1][v]; a >= 0 {
				t.up[k][v] = t.up[k-1][a]
			} else {
				t.up[k][v] = -1
			}
		}
	}
	return t, nil
}

// Resistance returns the tree-path resistance between u and v, or +Inf if
// they lie in different components of the forest.
func (t *TreeMetric) Resistance(u, v int) float64 {
	if t.comp[u] != t.comp[v] {
		return math.Inf(1)
	}
	l := t.lca(u, v)
	return t.resist[u] + t.resist[v] - 2*t.resist[l]
}

func (t *TreeMetric) lca(u, v int) int {
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	diff := t.depth[u] - t.depth[v]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			u = t.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if t.up[k][u] != t.up[k][v] {
			u, v = t.up[k][u], t.up[k][v]
		}
	}
	return t.up[0][u]
}

// Stretches returns the stretch of every edge of g with respect to the tree
// (edges of the tree itself have stretch 1). The second return value is the
// average stretch.
func Stretches(g *graph.Graph, treeEdges []graph.Edge) ([]float64, float64, error) {
	tm, err := NewTreeMetric(g.N(), treeEdges)
	if err != nil {
		return nil, 0, err
	}
	es := g.Edges()
	out := make([]float64, len(es))
	total := 0.0
	for i, e := range es {
		out[i] = e.W * tm.Resistance(e.U, e.V)
		total += out[i]
	}
	avg := 0.0
	if len(es) > 0 {
		avg = total / float64(len(es))
	}
	return out, avg, nil
}
