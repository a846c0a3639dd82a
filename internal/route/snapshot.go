package route

import (
	"context"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/graph"
)

// Snapshot is the immutable read view of the road network that the
// Service publishes through one atomic pointer. It bundles everything a
// query needs — the graph at a fixed set of edge costs, a Planner bound
// to it, the contraction-hierarchy metric customized for exactly those
// costs, and the snapshot's identity — so a reader loads the pointer
// once and then never coordinates with mutators at all: no lock, no
// version re-check, no torn state. Mutators never touch a published
// Snapshot; they build the next one off to the side and swap the
// pointer (see Service.installLocked).
//
// Invariant: ch, when non-nil, was customized for graph's exact costs,
// because both are frozen into the same publish. The CH read path
// therefore needs no freshness check; a nil ch (cold start, hierarchy
// never warmed) is the only fallback case.
//
//atis:immutable
type Snapshot struct {
	graph   *graph.Graph
	planner *core.Planner
	ch      *ch.Index // nil until the hierarchy is warmed

	// gen is the cost generation: it increases by one with every traffic
	// mutation and keys the route cache, so entries priced under retired
	// costs stop matching without a scan.
	gen uint64
	// seq is the publish sequence: it increases by one with every
	// snapshot swap, including cost-neutral ones (EnableCH installing an
	// index). It is the identity a gateway uses for snapshot-version-
	// aware fan-out (X-ATIS-Snapshot, GET /v1/snapshot).
	seq         uint64
	publishedAt time.Time
}

// newSnapshot freezes g (plus its customized index, which may be nil)
// into a publishable Snapshot. Callers pass a graph no other goroutine
// can still mutate: a fresh clone, or the graph of an already-published
// snapshot (immutable by this type's contract).
func newSnapshot(g *graph.Graph, ix *ch.Index, gen, seq uint64) *Snapshot {
	return &Snapshot{
		graph:       g,
		planner:     core.MustNew(g),
		ch:          ix,
		gen:         gen,
		seq:         seq,
		publishedAt: time.Now(),
	}
}

// Graph returns the snapshot's road network. Its edge costs are frozen;
// treat it as read-only.
//
//atis:hotpath
func (sn *Snapshot) Graph() *graph.Graph { return sn.graph }

// Reverse returns the reverse view of the snapshot's graph, built
// lazily on first use and cached inside the graph. The snapshot's costs
// never change, so the cached reverse stays valid for the snapshot's
// whole lifetime; concurrent first callers may race to build it, and
// either result is correct.
func (sn *Snapshot) Reverse() *graph.Graph { return sn.graph.ReverseView() }

// CH returns the contraction-hierarchy index customized for this
// snapshot's costs, or nil while the hierarchy is cold.
//
//atis:hotpath
func (sn *Snapshot) CH() *ch.Index { return sn.ch }

// CostGeneration is the snapshot's cost generation — bumped by every
// traffic mutation, stable across cost-neutral publishes.
//
//atis:hotpath
func (sn *Snapshot) CostGeneration() uint64 { return sn.gen }

// Generation is the snapshot's publish sequence number — bumped by
// every swap, the identity clients see as X-ATIS-Snapshot.
//
//atis:hotpath
func (sn *Snapshot) Generation() uint64 { return sn.seq }

// PublishedAt is when the snapshot was swapped in.
func (sn *Snapshot) PublishedAt() time.Time { return sn.publishedAt }

// Snapshot returns the currently published read view. Queries load it
// once and serve entirely from it; two loads may return different
// snapshots if a mutator published in between, which is exactly the
// consistency the service promises (each request sees one complete
// world, not necessarily the same world as the next request).
//
//atis:hotpath
func (s *Service) Snapshot() *Snapshot { return s.snap.Load() }

// installLocked publishes next as the current snapshot. Callers hold
// writeMu, so publishes are totally ordered; readers observe the swap
// through the atomic pointer's release/acquire pairing — every write
// that built the snapshot (graph costs, CH metric arrays) happens
// before the Store, so a reader that Loads the new pointer sees the
// snapshot fully built. A publish carrying an index closes any open
// stale-serving window.
func (s *Service) installLocked(next *Snapshot) {
	s.snap.Store(next)
	if next.ch != nil {
		if since := s.chStaleSince.Swap(0); since != 0 {
			s.chLastStaleNanos.Store(time.Now().UnixNano() - since)
		}
	}
}

// publishMutationLocked is the common tail of every traffic mutator,
// with writeMu held and next holding the just-mutated clone: count the
// event, re-customize the hierarchy's metric for the new costs (with a
// topology in hand this is the entire price of keeping CH fresh — one
// bottom-up triangle pass, no contraction), and swap the new world in.
// The previous snapshot is untouched throughout; readers that loaded it
// keep a complete, internally consistent view until they finish.
func (s *Service) publishMutationLocked(ctx context.Context, cur *Snapshot, next *graph.Graph) {
	s.trafficUpdates.Inc()
	ix := s.customizeFor(ctx, next)
	s.installLocked(newSnapshot(next, ix, cur.gen+1, cur.seq+1))
}

// customizeFor re-derives the hierarchy's metric for g's costs, or
// returns nil when the hierarchy was never warmed (no topology yet —
// the structural build never runs under writeMu). A nil return means
// the published snapshot serves CH requests by Dijkstra fallback until
// the background build completes.
func (s *Service) customizeFor(ctx context.Context, g *graph.Graph) *ch.Index {
	topo := s.chTopo.Load()
	if topo == nil || !topo.Matches(g) {
		return nil
	}
	ix, err := s.customizeTopo(ctx, topo, g)
	if err != nil {
		return nil // unreachable while Matches holds; queries fall back
	}
	return ix
}
