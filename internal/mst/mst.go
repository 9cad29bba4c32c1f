// Package mst computes maximum- and minimum-weight spanning forests. The
// maximum-weight spanning tree is the classical base of subgraph
// preconditioners (Vaidya/Joshi) and the timing baseline of the paper's
// Remark 1; Borůvka additionally ships a multi-core variant to mirror the
// paper's parallel construction claims.
package mst

import (
	"context"
	"fmt"
	"sort"

	"hcd/internal/graph"
	"hcd/internal/par"
)

// cancelled wraps the context's error for the build pipeline, which promotes
// it to its ErrBuildCancelled sentinel; errors.Is(err, context.Canceled)
// holds either way.
func cancelled(ctx context.Context) error {
	return fmt.Errorf("mst: cancelled: %w", ctx.Err())
}

// Objective selects between minimum- and maximum-weight spanning forests.
type Objective int

const (
	Min Objective = iota
	Max
)

// unionFind is a standard disjoint-set forest with path halving and union by
// size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}

// KruskalCtx returns the edges of a spanning forest optimizing obj by
// sorting all edges and greedily joining components. The greedy union loop
// polls cancellation at bounded intervals (the initial edge sort runs to
// completion first).
func KruskalCtx(ctx context.Context, g *graph.Graph, obj Objective) ([]graph.Edge, error) {
	es := g.Edges()
	if obj == Min {
		sort.Slice(es, func(i, j int) bool { return es[i].W < es[j].W })
	} else {
		sort.Slice(es, func(i, j int) bool { return es[i].W > es[j].W })
	}
	uf := newUnionFind(g.N())
	out := make([]graph.Edge, 0, max(g.N()-1, 0))
	for i, e := range es {
		if i&4095 == 0 && ctx.Err() != nil {
			return nil, cancelled(ctx)
		}
		if uf.union(e.U, e.V) {
			out = append(out, e)
			if len(out) == g.N()-1 {
				break
			}
		}
	}
	return out, nil
}

// Prim returns the edges of a spanning forest optimizing obj using a binary
// heap over candidate edges, restarted once per component.
func Prim(g *graph.Graph, obj Objective) []graph.Edge {
	n := g.N()
	inTree := make([]bool, n)
	out := make([]graph.Edge, 0, max(n-1, 0))
	h := &edgeHeap{obj: obj}
	for s := 0; s < n; s++ {
		if inTree[s] {
			continue
		}
		inTree[s] = true
		pushNeighbors(g, h, s)
		for h.Len() > 0 {
			e := h.pop()
			if inTree[e.V] {
				continue
			}
			inTree[e.V] = true
			out = append(out, e)
			pushNeighbors(g, h, e.V)
		}
	}
	return out
}

func pushNeighbors(g *graph.Graph, h *edgeHeap, v int) {
	nbr, w := g.Neighbors(v)
	for i, u := range nbr {
		h.push(graph.Edge{U: v, V: u, W: w[i]})
	}
}

// edgeHeap is a hand-rolled binary heap keyed by weight (direction depends
// on the objective); avoiding container/heap interface indirection keeps the
// baseline honest for the Remark 1 timing comparison.
type edgeHeap struct {
	es  []graph.Edge
	obj Objective
}

func (h *edgeHeap) Len() int { return len(h.es) }

func (h *edgeHeap) before(a, b graph.Edge) bool {
	if h.obj == Min {
		return a.W < b.W
	}
	return a.W > b.W
}

func (h *edgeHeap) push(e graph.Edge) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *edgeHeap) pop() graph.Edge {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.before(h.es[l], h.es[best]) {
			best = l
		}
		if r < last && h.before(h.es[r], h.es[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.es[i], h.es[best] = h.es[best], h.es[i]
		i = best
	}
	return top
}

// BoruvkaCtx returns the edges of a spanning forest optimizing obj. Each
// round every component selects its best incident edge and components
// merge; the number of rounds is O(log n). When parallel is true the
// per-vertex best edge scan and per-component reduction run across cores.
// Cancellation is polled once per merge round (each round is one O(m) scan,
// so the check interval is bounded by a single pass over the graph).
func BoruvkaCtx(ctx context.Context, g *graph.Graph, obj Objective, parallel bool) ([]graph.Edge, error) {
	n := g.N()
	uf := newUnionFind(n)
	var out []graph.Edge
	type cand struct {
		w    float64
		u, v int
		ok   bool
	}
	better := func(a, b cand) bool {
		if !b.ok {
			return true
		}
		if obj == Min {
			if a.w != b.w {
				return a.w < b.w
			}
		} else {
			if a.w != b.w {
				return a.w > b.w
			}
		}
		// Deterministic tie-break so parallel and sequential agree.
		if a.u != b.u {
			return a.u < b.u
		}
		return a.v < b.v
	}
	vertexBest := make([]cand, n)
	comp := make([]int, n)
	for {
		if ctx.Err() != nil {
			return nil, cancelled(ctx)
		}
		// Snapshot component labels so the parallel scan is read-only (find
		// performs path halving and must not race).
		for v := 0; v < n; v++ {
			comp[v] = uf.find(v)
		}
		// Per-vertex best incident cross-component edge.
		scan := func(lo, hi int) {
			for v := lo; v < hi; v++ {
				vertexBest[v] = cand{}
				rv := comp[v]
				nbr, w := g.Neighbors(v)
				for i, u := range nbr {
					if comp[u] == rv {
						continue
					}
					c := cand{w: w[i], u: v, v: u, ok: true}
					if c.u > c.v {
						c.u, c.v = c.v, c.u
					}
					if better(c, vertexBest[v]) {
						vertexBest[v] = c
					}
				}
			}
		}
		if parallel {
			par.For(n, 2048, scan)
		} else {
			scan(0, n)
		}
		// Reduce per-vertex candidates into per-component winners.
		compBest := make(map[int]cand)
		for v := 0; v < n; v++ {
			if !vertexBest[v].ok {
				continue
			}
			r := comp[v]
			if cur, ok := compBest[r]; !ok || better(vertexBest[v], cur) {
				compBest[r] = vertexBest[v]
			}
		}
		if len(compBest) == 0 {
			break
		}
		merged := false
		for _, c := range compBest {
			if uf.union(c.u, c.v) {
				out = append(out, graph.Edge{U: c.u, V: c.v, W: c.w})
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	return out, nil
}

// ForestGraph rebuilds a graph from forest edges over n vertices.
func ForestGraph(n int, edges []graph.Edge) *graph.Graph {
	return graph.MustFromEdges(n, edges)
}

// TotalWeight sums the weights of a set of edges.
func TotalWeight(edges []graph.Edge) float64 {
	t := 0.0
	for _, e := range edges {
		t += e.W
	}
	return t
}
