// Package ch implements a customizable contraction hierarchy — the
// preprocessing-based point-to-point engine the road-network literature
// (Wu et al.'s experimental evaluation; Chen & Gotsman's scalable
// fastest-path heuristic) identifies as the technique that makes repeated
// queries orders of magnitude cheaper than Dijkstra or A* on exactly the
// ATIS workload: many queries between arbitrary pairs, frequent cost
// updates.
//
// The hierarchy is split into two layers with very different lifetimes,
// following the metric-independence idea of customizable route planning
// (CRP) and customizable contraction hierarchies:
//
//   - The Topology (topology.go) contracts nodes in importance order and
//     keeps a shortcut arc for every in/out pair, plus the lower-triangle
//     lists describing how each arc can be composed from cheaper ones. It
//     depends only on the graph's structure and is built once.
//   - The Metric (customize.go) assigns each skeleton arc a weight and an
//     unpack middle under one concrete cost function, derived by a single
//     bottom-up triangle-relaxation sweep. A traffic update re-customizes
//     a fresh Metric in milliseconds; the Topology is untouched.
//
// Classic CH prunes shortcuts with witness searches; those proofs are
// only valid under the metric they were searched in, so a skeleton meant
// to survive cost updates cannot use them. The structural skeleton is
// larger, but queries prune just as hard via ranks and stall-on-demand,
// and the payoff is that no cost mutation — however large — ever forces
// a re-contraction.
//
// Queries (query.go) run bidirectional Dijkstra over the *upward* halves
// only: the forward search follows arcs toward more important nodes, the
// backward search does the same on the reverse graph, both climbing
// shallow cones instead of flooding a cost disc. The best meeting node's
// distance sum is the exact shortest-path cost, and unpacking the meeting
// path's arcs through their customized middles yields a path that
// validates edge-by-edge against the original graph.
//
// An Index pairs one Topology with one Metric. It is immutable, safe for
// concurrent queries, and answers for the costs of the graph it was
// customized from; new costs mean a new graph and a new Index.
package ch

import (
	"repro/internal/graph"
)

// Options tunes preprocessing. The zero value is ready to use.
type Options struct {
	// Workers bounds the worker pool computing initial contraction
	// priorities (the independent per-node pair counts). 0 means
	// GOMAXPROCS.
	Workers int
}

// Index is a queryable hierarchy: a metric-independent Topology plus one
// customized Metric. It is immutable and safe for concurrent queries;
// applying new costs means customizing a new Index from the same
// Topology, not mutating this one.
type Index struct {
	topo   *Topology
	metric *Metric
}

// arcKey packs a directed (tail, head) pair into the freeze-time
// position-resolution key.
func arcKey(u, w graph.NodeID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(w))
}

// NumNodes returns the number of nodes the index covers.
func (ix *Index) NumNodes() int { return ix.topo.n }

// Shortcuts returns the number of shortcut arcs the hierarchy added on top
// of the original edge set.
func (ix *Index) Shortcuts() int { return ix.topo.shortcuts }

// Rank returns node u's contraction rank (0 = contracted first, least
// important). It panics on out-of-range nodes, mirroring slice indexing.
func (ix *Index) Rank(u graph.NodeID) int { return int(ix.topo.rank[u]) }

// Topology returns the index's metric-independent layer, for callers that
// cache it across cost updates and re-customize instead of rebuilding.
func (ix *Index) Topology() *Topology { return ix.topo }

// Build preprocesses g into a queryable hierarchy: structural contraction
// (BuildTopology) followed by one customization pass for g's current
// costs. The graph is only read. Callers whose new graphs differ only in
// costs (a Clone plus ApplyBatch) should retain ix.Topology() and
// re-customize with Topology.NewIndex instead of calling Build again —
// same result, a thousandth of the work.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	topo, err := BuildTopology(g, opts)
	if err != nil {
		return nil, err
	}
	return topo.NewIndex(g)
}
