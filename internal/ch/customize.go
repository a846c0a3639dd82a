package ch

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// metricHalf carries the customized weights of one skeleton half, indexed
// by the half's arc positions: costs[p] is the current weight of the arc
// at position p, mid[p] the middle node of the triangle that produced it
// (graph.Invalid when an original edge is the cheapest realisation, in
// which case unpacking terminates at a base arc).
//
// Middle nodes are metric-dependent — under one cost function a shortcut
// unpacks through one triangle, under another through a different one —
// which is why they live here and not in the Topology.
type metricHalf struct {
	costs []float64
	mid   []graph.NodeID
}

// Metric is the metric-dependent layer of a hierarchy: one customized
// weight and middle node per skeleton arc, derived from one graph's
// frozen costs. A Metric is immutable after Customize and safe for
// concurrent queries; new costs arrive as a new graph and are served by
// customizing a fresh Metric, never by editing one in place (atislint's
// immutsnapshot analyzer checks this mechanically).
//
//atis:immutable
type Metric struct {
	fwd, bwd metricHalf
}

// Customize derives a fresh Metric for g's current costs in one bottom-up
// pass over the topology: seed every base-backed arc with its cheapest
// original edge cost, then sweep nodes in contraction order relaxing each
// arc through its lower triangles
//
//	w(u,w) ← min(w(u,w), w(u→v) + w(v→w))
//
// Both constituents of a triangle hang off the middle node v, which is
// ranked below u and w — so when the sweep reaches an arc's lower
// endpoint, every triangle constituent is already final, and one pass
// suffices. This is the whole trick: O(triangles) arithmetic instead of
// re-running ordering, witness searches and contraction.
func (t *Topology) Customize(g *graph.Graph) (*Metric, error) {
	if !t.Matches(g) {
		return nil, fmt.Errorf("ch: graph (%d nodes, %d edges) does not match topology (%d nodes, %d edges); structural rebuild required",
			g.NumNodes(), g.NumEdges(), t.n, t.m)
	}
	F := len(t.fwd.heads)
	B := len(t.bwd.heads)
	m := &Metric{
		fwd: metricHalf{costs: make([]float64, F), mid: make([]graph.NodeID, F)},
		bwd: metricHalf{costs: make([]float64, B), mid: make([]graph.NodeID, B)},
	}
	fc, bc := m.fwd.costs, m.bwd.costs
	fm, bm := m.fwd.mid, m.bwd.mid
	inf := math.Inf(1)
	for i := range fc {
		fc[i], fm[i] = inf, graph.Invalid
	}
	for i := range bc {
		bc[i], bm[i] = inf, graph.Invalid
	}

	// Seed base costs through the edge→arc map, min-collapsing parallel
	// edges exactly as any shortest-path computation would.
	ei := 0
	for u := graph.NodeID(0); int(u) < t.n; u++ {
		g.Neighbors(u, func(a graph.Arc) {
			p := t.edgePos[ei]
			ei++
			if p < 0 {
				return // self loop, not represented in the skeleton
			}
			if int(p) < F {
				if a.Cost < fc[p] {
					fc[p] = a.Cost
				}
			} else if q := p - int32(F); a.Cost < bc[q] {
				bc[q] = a.Cost
			}
		})
	}

	// Bottom-up triangle relaxation: nodes in contraction order, each
	// node's arcs (both halves) finalized before any arc that could use
	// them as a constituent.
	for r := 0; r < t.n; r++ {
		x := t.order[r]
		for p := t.fwd.offsets[x]; p < t.fwd.offsets[x+1]; p++ {
			best, mid := fc[p], fm[p]
			for ti := t.triOff[p]; ti < t.triOff[p+1]; ti++ {
				if c := bc[t.triDown[ti]] + fc[t.triUp[ti]]; c < best {
					best, mid = c, t.triMid[ti]
				}
			}
			fc[p], fm[p] = best, mid
		}
		for p := t.bwd.offsets[x]; p < t.bwd.offsets[x+1]; p++ {
			id := int32(F) + p
			best, mid := bc[p], bm[p]
			for ti := t.triOff[id]; ti < t.triOff[id+1]; ti++ {
				if c := bc[t.triDown[ti]] + fc[t.triUp[ti]]; c < best {
					best, mid = c, t.triMid[ti]
				}
			}
			bc[p], bm[p] = best, mid
		}
	}

	return m, nil
}

// NewIndex customizes g's current costs over the topology and assembles a
// queryable Index — the millisecond-scale replacement for a full Build
// whenever only costs changed.
func (t *Topology) NewIndex(g *graph.Graph) (*Index, error) {
	metric, err := t.Customize(g)
	if err != nil {
		return nil, err
	}
	return &Index{topo: t, metric: metric}, nil
}
