// Package graph provides the directed-graph model used throughout the
// repository: nodes with planar coordinates, directed edges with real-valued
// costs, and compact adjacency storage.
//
// The model follows Section 2 of Shekhar, Kohli and Coyle (ICDE 1993): a
// graph G = (N, E, C) with a node set N, an edge set E ⊆ N×N and a cost
// C(u,v) ∈ ℝ for every edge. Nodes additionally carry (x, y) coordinates
// because the paper's estimator functions (euclidean and manhattan distance)
// are defined over node positions.
//
// Graphs are built with a Builder and never change once shared. Real-time
// travel-time feeds (the ATIS motivation of the paper's introduction) are
// modelled by cloning a graph, applying a batch of cost changes to the
// clone with ApplyBatch, and publishing the clone in the original's place.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node. IDs are dense integers in [0, NumNodes).
type NodeID int32

// Invalid is the sentinel NodeID used where "no node" must be represented
// (for example, the predecessor of the source in a shortest-path tree).
const Invalid NodeID = -1

// Arc is one directed edge as seen from its tail node: the head node and the
// traversal cost. Neighbors returns a node's outgoing arcs as []Arc.
type Arc struct {
	Head NodeID
	Cost float64
}

// Edge is a fully-specified directed edge, used when enumerating the edge
// set independent of any particular tail node.
type Edge struct {
	Tail NodeID
	Head NodeID
	Cost float64
}

// Point is a planar coordinate. The paper's maps use arbitrary map units;
// nothing in the library assumes a particular scale.
type Point struct {
	X, Y float64
}

// EuclideanDistance returns the straight-line distance between p and q.
func (p Point) EuclideanDistance(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ManhattanDistance returns the L1 distance between p and q.
func (p Point) ManhattanDistance(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Graph is a directed graph in compressed sparse row (CSR) form. Its
// structure is immutable once built, and its costs are immutable once the
// graph is shared: the only cost writer is ApplyBatch on a fresh Clone.
type Graph struct {
	// offsets has length NumNodes()+1; the outgoing arcs of node u occupy
	// heads[offsets[u]:offsets[u+1]] and costs[offsets[u]:offsets[u+1]].
	offsets []int32
	heads   []NodeID
	costs   []float64
	points  []Point
	names   map[string]NodeID // optional landmark names; may be nil
	labels  []string          // reverse of names; empty strings where unnamed

	rev atomic.Pointer[Graph] // ReverseView's lazily built reverse
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed edges in the graph. An undirected
// road segment stored as two directed edges counts as two.
func (g *Graph) NumEdges() int { return len(g.heads) }

// valid reports whether u names a node of g.
func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < g.NumNodes() }

// Point returns the coordinates of node u. It panics if u is out of range,
// mirroring slice indexing; callers hold NodeIDs produced by this package.
func (g *Graph) Point(u NodeID) Point { return g.points[u] }

// OutDegree returns the number of outgoing arcs of node u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors calls fn for every outgoing arc of u, in insertion order. It is
// allocation-free; the search algorithms call it on their hot path.
func (g *Graph) Neighbors(u NodeID, fn func(Arc)) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	for i := lo; i < hi; i++ {
		fn(Arc{Head: g.heads[i], Cost: g.costs[i]})
	}
}

// Arcs returns the outgoing arcs of u as a freshly allocated slice. Prefer
// Neighbors in performance-sensitive code.
func (g *Graph) Arcs(u NodeID) []Arc {
	lo, hi := g.offsets[u], g.offsets[u+1]
	arcs := make([]Arc, 0, hi-lo)
	for i := lo; i < hi; i++ {
		arcs = append(arcs, Arc{Head: g.heads[i], Cost: g.costs[i]})
	}
	return arcs
}

// Edges returns every directed edge of the graph in tail-major order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			edges = append(edges, Edge{Tail: u, Head: g.heads[i], Cost: g.costs[i]})
		}
	}
	return edges
}

// ArcCost returns the cost of the directed edge (u, v) and whether such an
// edge exists. With parallel edges the cheapest one is reported, matching
// what any shortest-path computation would use.
func (g *Graph) ArcCost(u, v NodeID) (float64, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	best, found := math.Inf(1), false
	lo, hi := g.offsets[u], g.offsets[u+1]
	for i := lo; i < hi; i++ {
		if g.heads[i] == v && g.costs[i] < best {
			best, found = g.costs[i], true
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// EdgeCostChange is one entry of an ApplyBatch traffic update: the directed
// edge (Tail, Head) either has its cost set to Cost (Scale false) or
// multiplied by Cost (Scale true). Either way the change covers every
// parallel edge of the pair.
type EdgeCostChange struct {
	Tail  NodeID
	Head  NodeID
	Cost  float64
	Scale bool
}

// ApplyBatch applies a burst of edge-cost changes to g. It is meant for a
// fresh Clone that nothing else holds yet: it takes no lock, and a
// reverse view already built for g would not see the change. The whole
// batch is validated up front, so a bad entry leaves g untouched. It
// returns the number of changes that matched at least one edge.
//
// Entries are applied in order; later entries targeting the same pair win
// (for Scale entries, compound).
func (g *Graph) ApplyBatch(changes []EdgeCostChange) (int, error) {
	for _, ch := range changes {
		if ch.Cost < 0 || math.IsNaN(ch.Cost) {
			what := "cost"
			if ch.Scale {
				what = "scale factor"
			}
			return 0, fmt.Errorf("graph: %s %v for edge (%d,%d) must be non-negative", what, ch.Cost, ch.Tail, ch.Head)
		}
		if !g.valid(ch.Tail) || !g.valid(ch.Head) {
			return 0, fmt.Errorf("graph: edge (%d,%d) references unknown node", ch.Tail, ch.Head)
		}
	}
	applied := 0
	for _, ch := range changes {
		found := false
		lo, hi := g.offsets[ch.Tail], g.offsets[ch.Tail+1]
		for i := lo; i < hi; i++ {
			if g.heads[i] != ch.Head {
				continue
			}
			if ch.Scale {
				g.costs[i] *= ch.Cost
			} else {
				g.costs[i] = ch.Cost
			}
			found = true
		}
		if found {
			applied++
		}
	}
	return applied, nil
}

// MinArcCost returns the smallest edge cost in the graph, or +Inf for a
// graph with no edges. Estimator scaling (converting a distance estimate to
// a travel-time lower bound) uses it.
func (g *Graph) MinArcCost() float64 {
	best := math.Inf(1)
	for _, c := range g.costs {
		if c < best {
			best = c
		}
	}
	return best
}

// TotalCost returns the sum of all edge costs.
func (g *Graph) TotalCost() float64 {
	var sum float64
	for _, c := range g.costs {
		sum += c
	}
	return sum
}

// Name returns the landmark name of node u, or "" if the node is unnamed.
func (g *Graph) Name(u NodeID) string {
	if int(u) >= len(g.labels) {
		return ""
	}
	return g.labels[u]
}

// Lookup resolves a landmark name to its node, reporting whether the name
// exists.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	id, ok := g.names[name]
	return id, ok
}

// NamedNodes returns the map from landmark name to node. The returned map is
// a copy; mutating it does not affect the graph.
func (g *Graph) NamedNodes() map[string]NodeID {
	out := make(map[string]NodeID, len(g.names))
	for k, v := range g.names {
		out[k] = v
	}
	return out
}

// Bounds returns the bounding box of all node coordinates. For an empty
// graph both corners are the origin.
func (g *Graph) Bounds() (min, max Point) {
	if len(g.points) == 0 {
		return Point{}, Point{}
	}
	min = g.points[0]
	max = g.points[0]
	for _, p := range g.points[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	return min, max
}

// Clone returns a graph whose costs can be changed with ApplyBatch without
// affecting g. The immutable structure (offsets, heads, points, names and
// labels) is shared; only the costs are copied. The clone starts without
// a reverse view of its own.
func (g *Graph) Clone() *Graph {
	return &Graph{
		offsets: g.offsets,
		heads:   g.heads,
		costs:   append([]float64(nil), g.costs...),
		points:  g.points,
		names:   g.names,
		labels:  g.labels,
	}
}

// Reverse returns a new graph with every edge direction flipped and costs
// preserved. Shortest paths to a fixed destination in g are shortest paths
// from that node in the reverse graph; admissibility checking and
// bidirectional search build on this.
func (g *Graph) Reverse() *Graph {
	n := g.NumNodes()
	b := NewBuilder(n, g.NumEdges())
	for _, p := range g.points {
		b.AddNode(p.X, p.Y)
	}
	for u := NodeID(0); int(u) < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			b.AddEdge(g.heads[i], u, g.costs[i])
		}
	}
	for name, u := range g.names {
		b.Name(u, name)
	}
	// The inputs came from a valid graph; Build cannot fail.
	rg := b.MustBuild()
	return rg
}

// ReverseView returns the reverse graph, built on first use and shared by
// every later call, which closes the last per-query O(m) allocation in
// bidirectional search. Concurrent first callers may race to build it;
// both builds are equal and one simply wins the store. Callers must treat
// the returned graph as read-only.
func (g *Graph) ReverseView() *Graph {
	if rg := g.rev.Load(); rg != nil {
		return rg
	}
	rg := g.Reverse()
	g.rev.Store(rg)
	return rg
}

// String summarises the graph for logs and debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
}
