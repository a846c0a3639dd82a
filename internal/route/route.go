// Package route provides the three ATIS facilities of the paper's
// introduction (Section 1.1) on top of the core planner:
//
//   - route computation — "locate a connected sequence of road segments
//     from current location to destination",
//   - route evaluation — "find the attributes of a given route between two
//     points … travel time and traffic congestion information",
//   - route display — "effectively communicate the optimal route to the
//     traveller".
//
// It also models the real-time traffic feed the paper motivates ("an
// effective navigation system with static route selection, coupled with
// real-time traffic information"): congestion updates build a fresh
// immutable Snapshot off to the side and publish it atomically, and
// recomputation picks up the new costs through the next snapshot load.
//
// The package's concurrency surface splits into two interfaces: Querier
// (the read path — lock-free, served entirely from one Snapshot load)
// and Mutator (the write path — serialized, clone-apply-publish).
// Service implements both and is safe for concurrent use.
package route

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asciichart"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Service owns the mutable world of a road network — traffic ingestion,
// CH customization, cache invalidation — and serves the three ATIS
// facilities from immutable snapshots of it.
//
// Concurrency discipline: there is no readers–writer lock. The service
// publishes its entire read state as one *Snapshot behind an atomic
// pointer; every query path (Compute, Evaluate, Display, Alternates,
// Nearest, Reachable, Directions, batch, …) loads the pointer once and
// runs to completion against that frozen view, so arbitrarily many
// queries proceed with zero coordination — no query ever blocks behind a
// mutator, however long the mutator's customization pass runs. The
// traffic mutators (ApplyCongestion, ApplyRegionCongestion,
// ApplyTrafficBatch, ResetTraffic) and the CH publishers (EnableCH, the
// background rebuild) serialize on writeMu, clone the current graph,
// apply their changes to the clone, re-customize the hierarchy's metric
// for the new costs, and swap the finished Snapshot in. The route cache
// is keyed on (endpoints, options, snapshot cost generation) and has its
// own per-shard locks; a publish retires every stale entry at once by
// changing the generation new requests key on.
type Service struct {
	base *graph.Graph // pristine costs, for congestion ratios and reset

	// snap is the published read view; see Snapshot. writeMu serializes
	// everyone who publishes a successor (traffic mutators, EnableCH, the
	// background CH rebuild). Readers never touch writeMu.
	snap    atomic.Pointer[Snapshot]
	writeMu sync.Mutex

	cache *routeCache

	// chTopo holds the metric-independent contraction topology
	// (contraction order, shortcut skeleton, triangle lists) — built once
	// off-lock, valid until the graph's structure changes, which the
	// graph model never does after construction. The customized metric
	// itself lives inside each Snapshot. chMu + chBuilding singleflight
	// the cold-start background build — the one case that still pays a
	// full contraction.
	chMu       sync.Mutex
	chBuilding bool
	chTopo     atomic.Pointer[ch.Topology]

	// chStaleSince is the UnixNano timestamp at which the current
	// stale-serving window opened (first fallback after a CH request
	// found no index); 0 while the published snapshot carries an index.
	// chLastStaleNanos holds the duration of the most recently closed
	// window.
	chStaleSince     atomic.Int64
	chLastStaleNanos atomic.Int64

	// Telemetry. The registry is the single source of truth for every
	// service counter: CacheStats and the legacy /stats payload read the
	// same instruments /metrics exports, so the two cannot disagree.
	reg            *telemetry.Registry
	cacheHits      *telemetry.Counter
	cacheMiss      *telemetry.Counter
	computeSeconds map[core.Algorithm]*telemetry.Histogram
	batchRequests  *telemetry.Counter
	batchPairs     *telemetry.Counter
	trafficUpdates *telemetry.Counter

	chQuerySeconds     *telemetry.Histogram
	chRebuildSeconds   *telemetry.Histogram
	chCustomizeSeconds *telemetry.Histogram
	chSettled          *telemetry.Counter
	chQueries          *telemetry.Counter
	chStaleFallbacks   *telemetry.Counter
	chRebuilds         *telemetry.Counter
	chCustomizations   *telemetry.Counter
	trafficBatches     *telemetry.Counter

	// tracer, when set, gives background work (the singleflight CH
	// rebuild) its own traces; request-path spans ride the caller's
	// context and need no tracer here. A nil pointer is a disabled
	// tracer — every tracing call below is nil-safe.
	tracer atomic.Pointer[tracing.Tracer]
}

// NewService clones g once so traffic updates never touch the caller's
// graph; the clone is both the pristine base and the first snapshot. The
// service records its metrics into a private registry; use
// NewServiceWithRegistry to share one.
func NewService(g *graph.Graph) *Service {
	return NewServiceWithRegistry(g, telemetry.NewRegistry())
}

// NewServiceWithRegistry is NewService recording into reg.
func NewServiceWithRegistry(g *graph.Graph, reg *telemetry.Registry) *Service {
	base := g.Clone()
	s := &Service{
		base:  base,
		cache: newRouteCache(defaultCacheCapacity),

		reg: reg,
		cacheHits: reg.Counter("atis_route_cache_requests_total",
			"Route computations by cache outcome.", telemetry.L("result", "hit")),
		cacheMiss: reg.Counter("atis_route_cache_requests_total",
			"Route computations by cache outcome.", telemetry.L("result", "miss")),
		computeSeconds: make(map[core.Algorithm]*telemetry.Histogram),
		batchRequests: reg.Counter("atis_route_batch_requests_total",
			"ComputeBatch invocations."),
		batchPairs: reg.Counter("atis_route_batch_pairs_total",
			"Origin-destination pairs fanned out by ComputeBatch."),
		trafficUpdates: reg.Counter("atis_traffic_updates_total",
			"Traffic mutations applied (congestion, region congestion, reset)."),

		chQuerySeconds: reg.Histogram("atis_ch_query_seconds",
			"Wall time of queries served by the contraction hierarchy.", nil),
		chRebuildSeconds: reg.Histogram("atis_ch_rebuild_seconds",
			"Wall time of contraction-hierarchy (re)builds.", nil),
		chSettled: reg.Counter("atis_ch_settled_nodes_total",
			"Nodes settled across all CH queries (both directions)."),
		chQueries: reg.Counter("atis_ch_queries_total",
			"Queries served by the contraction hierarchy."),
		chStaleFallbacks: reg.Counter("atis_ch_stale_fallbacks_total",
			"CH requests served by Dijkstra because the index was absent or stale."),
		chRebuilds: reg.Counter("atis_ch_rebuilds_total",
			"Structural topology builds completed (cold start or structural change)."),
		chCustomizeSeconds: reg.Histogram("atis_ch_customize_seconds",
			"Wall time of metric customization passes over the CH topology.", nil),
		chCustomizations: reg.Counter("atis_ch_customizations_total",
			"Metric customizations completed (cost-only updates, no re-contraction)."),
		trafficBatches: reg.Counter("atis_traffic_batches_total",
			"Batched traffic updates applied through ApplyTrafficBatch."),
	}
	// The first snapshot is published before the service escapes the
	// constructor, so Snapshot() never returns nil and the gauges below
	// can read through it unconditionally.
	s.snap.Store(newSnapshot(base, nil, 0, 1))
	s.cache.evictions = reg.Counter("atis_route_cache_evictions_total",
		"Routes evicted from the LRU cache.")
	for _, a := range core.Algorithms() {
		s.computeSeconds[a] = reg.Histogram("atis_route_compute_seconds",
			"Wall time of uncached route computations.", nil, telemetry.L("algo", a.String()))
	}
	reg.GaugeFunc("atis_route_cache_entries",
		"Routes resident in the cache.", func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("atis_traffic_generation",
		"Current cost generation (bumps on every traffic mutation).",
		func() float64 { return float64(s.CostGeneration()) })
	reg.GaugeFunc("atis_snapshot_generation",
		"Publish sequence of the current snapshot (bumps on every swap).",
		func() float64 { return float64(s.snap.Load().seq) })
	reg.GaugeFunc("atis_ch_shortcuts",
		"Shortcut arcs in the current contraction hierarchy (0 until built).",
		func() float64 {
			if ix := s.snap.Load().ch; ix != nil {
				return float64(ix.Shortcuts())
			}
			return 0
		})
	reg.GaugeFunc("atis_ch_stale_window_seconds",
		"Seconds the current stale-serving window has been open (0 while the hierarchy serves).",
		func() float64 {
			if since := s.chStaleSince.Load(); since != 0 {
				return time.Since(time.Unix(0, since)).Seconds()
			}
			return 0
		})
	reg.GaugeFunc("atis_ch_last_stale_window_seconds",
		"Duration of the most recently closed stale-serving window.",
		func() float64 { return time.Duration(s.chLastStaleNanos.Load()).Seconds() })
	return s
}

// Registry returns the registry holding the service's metrics.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// SetTracer attaches a tracer so the service's background work (the
// singleflight CH rebuild) produces traces of its own. Request-path
// spans need no tracer here — they attach to the span already in the
// caller's context.
func (s *Service) SetTracer(t *tracing.Tracer) { s.tracer.Store(t) }

// CostGeneration returns the published snapshot's cost generation. It
// starts at zero and increases by one on every traffic mutation; two equal
// generations imply identical edge costs.
//
//atis:hotpath
func (s *Service) CostGeneration() uint64 {
	return s.snap.Load().gen
}

// CacheStats reports route-cache hits, misses, and resident entries since
// the service was created. The values are read from the same telemetry
// instruments /metrics exports; nothing here can block behind a writer.
func (s *Service) CacheStats() (hits, misses uint64, entries int) {
	return s.cacheHits.Value(), s.cacheMiss.Value(), s.cache.len()
}

// Graph returns the published snapshot's graph. Callers must treat it as
// read-only; use the traffic methods to change costs. Prefer Snapshot for
// multi-step reads that must see one consistent world.
func (s *Service) Graph() *graph.Graph {
	return s.snap.Load().graph
}

// Compute runs route computation between nodes, consulting the
// generation-keyed cache first: repeated queries for the same endpoints and
// options under unchanged traffic are served from memory without touching
// the search engine. A traffic mutation bumps the cost generation, which
// implicitly invalidates every cached route at once.
func (s *Service) Compute(from, to graph.NodeID, opts core.Options) (core.Route, error) {
	return s.ComputeCtx(context.Background(), from, to, opts)
}

// ComputeCtx is Compute under a request lifecycle: the underlying kernel
// polls ctx from its main loop and the call returns a typed lifecycle
// error (search.ErrCanceled, search.ErrDeadline, search.ErrBudget) as
// soon as the context dies or the expansion budget (search.WithBudget)
// runs out. Cache hits are served regardless of the context's state —
// the answer is already in hand. Lifecycle-aborted computations are
// never cached.
func (s *Service) ComputeCtx(ctx context.Context, from, to graph.NodeID, opts core.Options) (core.Route, error) {
	return s.computeSnap(ctx, s.snap.Load(), from, to, opts)
}

// computeSnap is ComputeCtx pinned to one already-loaded snapshot — the
// shared entry for single requests and batch workers, which load the
// snapshot once and serve every pair from the same world.
func (s *Service) computeSnap(ctx context.Context, snap *Snapshot, from, to graph.NodeID, opts core.Options) (core.Route, error) {
	key := cacheKey{
		from: from, to: to,
		algo: opts.Algorithm, weight: opts.Weight, frontier: opts.Frontier,
		gen: snap.gen,
	}
	if rt, ok := s.cacheLookup(ctx, key); ok {
		s.cacheHits.Inc()
		return rt, nil
	}
	start := time.Now()
	rt, err := s.routeSnap(ctx, snap, from, to, opts)
	s.cacheMiss.Inc()
	if err != nil {
		return rt, err
	}
	if h, ok := s.computeSeconds[opts.Algorithm]; ok {
		h.Observe(time.Since(start).Seconds())
	}
	// Stored under the snapshot's generation: if a mutation published
	// meanwhile, the entry sits under the old generation and will never be
	// served. Stored under the algorithm that actually served it: a CH
	// request answered by the Dijkstra fallback is cached as a Dijkstra
	// route, so once the warmed hierarchy publishes, the next CH request
	// reaches the index instead of replaying the fallback.
	key.algo = rt.Algorithm
	s.cache.put(key, rt)
	return rt, nil
}

// cacheLookup consults the route cache, recording the outcome as a
// "route.cache" span when a trace is active — a cache hit explains an
// anomalously fast request exactly as a miss explains a slow one.
func (s *Service) cacheLookup(ctx context.Context, key cacheKey) (core.Route, bool) {
	_, sp := tracing.Start(ctx, "route.cache")
	defer sp.End()
	rt, ok := s.cache.get(key)
	sp.SetBool("hit", ok)
	return rt, ok
}

// routeSnap computes one route against snap, dispatching CH requests to
// the snapshot's index. The index, when present, was customized for the
// snapshot's exact costs when the snapshot was built — no freshness check
// is needed or possible to fail. A snapshot without an index (cold start)
// falls back to Dijkstra — the result is labeled with the algorithm that
// actually ran — and triggers the background build.
func (s *Service) routeSnap(ctx context.Context, snap *Snapshot, from, to graph.NodeID, opts core.Options) (core.Route, error) {
	if opts.Algorithm != core.CH {
		return snap.planner.RouteCtx(ctx, from, to, opts)
	}
	if ix := snap.ch; ix != nil {
		return s.chQuery(ctx, ix, from, to)
	}
	s.chStaleFallbacks.Inc()
	s.chStaleSince.CompareAndSwap(0, time.Now().UnixNano())
	s.scheduleCHRebuild()
	// A trace of a fallback-served request must say so: the traveller
	// asked for CH and got a Dijkstra answer with Dijkstra's latency.
	tracing.FromContext(ctx).SetBool("ch.staleFallback", true)
	fb := opts
	fb.Algorithm = core.Dijkstra
	return snap.planner.RouteCtx(ctx, from, to, fb)
}

// chQuery serves one request from a snapshot's hierarchy index, wrapping
// the query in a "kernel" span (the CH counterpart of the planner's)
// under which the index nests its search and unpack phases.
func (s *Service) chQuery(ctx context.Context, ix *ch.Index, from, to graph.NodeID) (core.Route, error) {
	ctx, sp := tracing.Start(ctx, "kernel")
	defer sp.End()
	sp.SetStr("algo", "ch")
	start := time.Now()
	res, err := ix.QueryCtx(ctx, from, to)
	if err != nil {
		return core.Route{}, search.FromContextErr(err)
	}
	s.chQuerySeconds.Observe(time.Since(start).Seconds())
	s.chQueries.Inc()
	s.chSettled.Add(uint64(res.Settled))
	sp.SetBool("found", res.Found)
	sp.SetInt("iterations", int64(res.Settled))
	sp.SetInt("expansions", int64(res.Settled))
	return core.Route{
		Found:     res.Found,
		Path:      res.Path,
		Cost:      res.Cost,
		Algorithm: core.CH,
		Trace: search.Trace{
			Iterations:  res.Settled,
			Expansions:  res.Settled,
			Relaxations: res.Relaxed,
		},
	}, nil
}

// ComputeDegraded answers a route request without running a search — the
// load-shedding escape hatch the admission layer uses when the server is
// saturated. It consults, in order: the route cache under the snapshot's
// cost generation (exact key only, no search, and no hit/miss counter
// bumps — degraded answers must not skew cache telemetry), then the
// snapshot's contraction-hierarchy index, whose per-query work is
// near-constant and far below any kernel's. It reports ok=false when
// neither source can answer — the caller sheds the request for real.
func (s *Service) ComputeDegraded(from, to graph.NodeID, opts core.Options) (core.Route, bool) {
	snap := s.snap.Load()
	key := cacheKey{
		from: from, to: to,
		algo: opts.Algorithm, weight: opts.Weight, frontier: opts.Frontier,
		gen: snap.gen,
	}
	if rt, ok := s.cache.get(key); ok {
		return rt, true
	}
	ix := snap.ch
	if ix == nil {
		return core.Route{}, false
	}
	rt, err := s.chQuery(context.Background(), ix, from, to)
	return rt, err == nil
}

// scheduleCHRebuild starts a background hierarchy build unless one is
// already running (singleflight). Safe to call from query paths: the
// builder goroutine does all heavy work against immutable snapshots and
// only takes writeMu for the final publish.
func (s *Service) scheduleCHRebuild() {
	s.chMu.Lock()
	if s.chBuilding {
		s.chMu.Unlock()
		return
	}
	s.chBuilding = true
	s.chMu.Unlock()
	go s.rebuildCH()
}

// rebuildCH readies a hierarchy for the published snapshot's graph — the
// structural contraction runs entirely off-lock against the immutable
// snapshot, so queries and traffic mutations proceed unhindered — then
// publishes a successor snapshot carrying the customized index. If a
// mutation published meanwhile, the final customization under writeMu
// re-prices for whatever graph is current then; the index in a published
// snapshot always matches that snapshot's costs by construction.
func (s *Service) rebuildCH() {
	defer func() {
		s.chMu.Lock()
		s.chBuilding = false
		s.chMu.Unlock()
	}()
	// Background rebuilds get their own trace (always captured when the
	// tracer is enabled): a rebuild is rare, structural, and exactly what
	// an operator staring at a stale-fallback spike wants to see timed.
	tracer := s.tracer.Load()
	ctx, tr := tracer.StartBackground("ch.rebuild")
	defer tracer.Finish(tr)
	if _, err := s.ensureTopology(ctx, s.snap.Load().graph); err != nil {
		return // only possible on an empty graph, which has nothing to serve
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.snap.Load()
	if cur.ch != nil {
		return // a mutator's synchronous customization published first
	}
	ix := s.customizeFor(ctx, cur.graph)
	if ix == nil {
		return
	}
	s.installLocked(newSnapshot(cur.graph, ix, cur.gen, cur.seq+1))
}

// ensureTopology returns a topology matching g's structure, building one
// — the expensive, cold-start-only structural contraction — if none is
// cached. Callers must not hold writeMu: the build is seconds of work at
// scale, and g is immutable, so no lock is needed to read it.
func (s *Service) ensureTopology(ctx context.Context, g *graph.Graph) (*ch.Topology, error) {
	if topo := s.chTopo.Load(); topo != nil && topo.Matches(g) {
		return topo, nil
	}
	t, err := s.buildTopology(ctx, g)
	if err != nil {
		return nil, err
	}
	s.chTopo.Store(t)
	return t, nil
}

// buildTopology runs the structural contraction — the expensive,
// cold-start-only phase — as a "ch.topology" span.
func (s *Service) buildTopology(ctx context.Context, g *graph.Graph) (*ch.Topology, error) {
	_, sp := tracing.Start(ctx, "ch.topology")
	defer sp.End()
	start := time.Now()
	t, err := ch.BuildTopology(g, ch.Options{})
	if err != nil {
		return nil, err
	}
	s.chRebuildSeconds.Observe(time.Since(start).Seconds())
	s.chRebuilds.Inc()
	return t, nil
}

// customizeTopo re-prices topo's shortcuts for g's current costs — the
// millisecond "ch.customize" phase that runs inside every traffic
// mutator and at the tail of every rebuild.
func (s *Service) customizeTopo(ctx context.Context, topo *ch.Topology, g *graph.Graph) (*ch.Index, error) {
	_, sp := tracing.Start(ctx, "ch.customize")
	defer sp.End()
	start := time.Now()
	ix, err := topo.NewIndex(g)
	if err != nil {
		return nil, err
	}
	s.chCustomizeSeconds.Observe(time.Since(start).Seconds())
	s.chCustomizations.Inc()
	sp.SetInt("shortcuts", int64(ix.Shortcuts()))
	return ix, nil
}

// EnableCH readies the contraction hierarchy synchronously so the first
// algo=ch query is served by the index instead of falling back while a
// background build warms up. Servers call it once at startup; it is not
// required — the first CH query triggers a build on its own. After the
// topology exists, every traffic mutation re-customizes as part of its
// publish, so calling EnableCH again is cheap (one customization pass)
// and only useful to force-publish a fresh snapshot outside the mutator
// paths.
func (s *Service) EnableCH() error {
	ctx := context.Background()
	if _, err := s.ensureTopology(ctx, s.snap.Load().graph); err != nil {
		return fmt.Errorf("route: building contraction hierarchy: %w", err)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	// Customize for whatever graph is current *now*: a mutation may have
	// published between the off-lock build and taking writeMu. Structure
	// never changes, so the topology still matches.
	cur := s.snap.Load()
	ix, err := s.customizeTopo(ctx, s.chTopo.Load(), cur.graph)
	if err != nil {
		return fmt.Errorf("route: customizing contraction hierarchy: %w", err)
	}
	s.installLocked(newSnapshot(cur.graph, ix, cur.gen, cur.seq+1))
	return nil
}

// CHStats describes the contraction hierarchy's serving state.
type CHStats struct {
	// Ready reports whether the published snapshot carries an index.
	Ready bool `json:"ready"`
	// Fresh reports whether the index matches the snapshot's cost
	// version. Under snapshot publication this is Ready by construction —
	// an index is customized for its snapshot's exact costs before the
	// swap — and the field remains for API compatibility.
	Fresh bool `json:"fresh"`
	// Shortcuts is the shortcut-arc count of the current index.
	Shortcuts int `json:"shortcuts"`
	// Queries counts requests served by the hierarchy itself.
	Queries uint64 `json:"queries"`
	// StaleFallbacks counts CH requests served by Dijkstra instead.
	StaleFallbacks uint64 `json:"staleFallbacks"`
	// Rebuilds counts completed structural topology builds (cold start or
	// structural change) — not metric refreshes.
	Rebuilds uint64 `json:"rebuilds"`
	// Customizations counts completed metric customizations: the
	// millisecond passes that keep the index fresh across cost mutations.
	Customizations uint64 `json:"customizations"`
	// StaleWindowSeconds is how long the current stale-serving window has
	// been open; 0 while CH requests are served by the index.
	StaleWindowSeconds float64 `json:"staleWindowSeconds"`
	// LastStaleWindowSeconds is the duration of the most recently closed
	// stale-serving window (the cold-start build, in a healthy service).
	LastStaleWindowSeconds float64 `json:"lastStaleWindowSeconds"`
}

// CHStats reports the hierarchy's serving state, read from the published
// snapshot and the same instruments /metrics exports. It takes no lock,
// so a stats scrape can never block behind a writer.
func (s *Service) CHStats() CHStats {
	st := CHStats{
		Queries:                s.chQueries.Value(),
		StaleFallbacks:         s.chStaleFallbacks.Value(),
		Rebuilds:               s.chRebuilds.Value(),
		Customizations:         s.chCustomizations.Value(),
		LastStaleWindowSeconds: time.Duration(s.chLastStaleNanos.Load()).Seconds(),
	}
	if since := s.chStaleSince.Load(); since != 0 {
		st.StaleWindowSeconds = time.Since(time.Unix(0, since)).Seconds()
	}
	ix := s.snap.Load().ch
	if ix == nil {
		return st
	}
	st.Ready = true
	st.Fresh = true // snapshot invariant: the index matches its graph's costs
	st.Shortcuts = ix.Shortcuts()
	return st
}

// ComputeByName runs route computation between named landmarks. Name
// resolution uses the immutable graph structure, so the call shares
// Compute's cache.
func (s *Service) ComputeByName(from, to string, opts core.Options) (core.Route, error) {
	snap := s.snap.Load()
	f, ok := snap.graph.Lookup(from)
	if !ok {
		return core.Route{}, fmt.Errorf("route: unknown landmark %q", from)
	}
	t, ok := snap.graph.Lookup(to)
	if !ok {
		return core.Route{}, fmt.Errorf("route: unknown landmark %q", to)
	}
	return s.computeSnap(context.Background(), snap, f, t, opts)
}

// ComputeVia plans a route that visits every stop in order — the errand run
// (home → school → work) an ATIS serves routinely. The result is the
// concatenation of the per-leg routes: its cost is the sum of the leg costs
// and its trace accumulates the legs' work. Found is false when any leg is
// unreachable.
func (s *Service) ComputeVia(stops []graph.NodeID, opts core.Options) (core.Route, error) {
	return s.ComputeViaCtx(context.Background(), stops, opts)
}

// ComputeViaCtx is ComputeVia under a request lifecycle: each leg's
// kernel polls ctx, so a multi-stop plan stops between (or within) legs
// with a typed lifecycle error as soon as the context dies. All legs are
// computed against one snapshot, so a traffic mutation mid-plan cannot
// price different legs under different costs.
func (s *Service) ComputeViaCtx(ctx context.Context, stops []graph.NodeID, opts core.Options) (core.Route, error) {
	if len(stops) < 2 {
		return core.Route{}, fmt.Errorf("route: ComputeVia needs at least 2 stops, got %d", len(stops))
	}
	snap := s.snap.Load()
	combined := core.Route{
		Found:     true,
		Algorithm: opts.Algorithm,
		Path:      graph.Path{Nodes: []graph.NodeID{stops[0]}},
	}
	for i := 0; i+1 < len(stops); i++ {
		leg, err := s.routeSnap(ctx, snap, stops[i], stops[i+1], opts)
		if err != nil {
			return core.Route{}, fmt.Errorf("route: leg %d (%d→%d): %w", i, stops[i], stops[i+1], err)
		}
		if !leg.Found {
			return core.Route{Found: false, Algorithm: opts.Algorithm, Cost: math.Inf(1)}, nil
		}
		combined.Cost += leg.Cost
		combined.Path.Nodes = append(combined.Path.Nodes, leg.Path.Nodes[1:]...)
		combined.Trace.Iterations += leg.Trace.Iterations
		combined.Trace.Expansions += leg.Trace.Expansions
		combined.Trace.Relaxations += leg.Trace.Relaxations
		combined.Trace.Improvements += leg.Trace.Improvements
		combined.Trace.Reopens += leg.Trace.Reopens
		if leg.Trace.MaxFrontier > combined.Trace.MaxFrontier {
			combined.Trace.MaxFrontier = leg.Trace.MaxFrontier
		}
	}
	return combined, nil
}

// Evaluation is the attribute set of a given route (the paper's route
// evaluation: "useful for selecting travel time by a familiar path").
type Evaluation struct {
	// Valid reports whether the node sequence is a path of the network.
	Valid bool
	// Hops is the number of road segments.
	Hops int
	// Distance is the geometric length (sum of straight-line segment
	// lengths).
	Distance float64
	// BaseCost is the route's cost under free-flow (pristine) edge costs.
	BaseCost float64
	// CurrentCost is the route's cost under live (congested) edge costs —
	// the travel-time attribute.
	CurrentCost float64
	// CongestionRatio is CurrentCost / BaseCost (1 = free flow).
	CongestionRatio float64
	// CongestedHops counts segments whose live cost exceeds base cost.
	CongestedHops int
}

// Evaluate computes the attributes of path under the published snapshot's
// costs. base is read-only after construction, so comparing it with the
// snapshot needs no coordination.
func (s *Service) Evaluate(path graph.Path) (Evaluation, error) {
	cur := s.snap.Load().graph
	ev := Evaluation{Hops: path.Len()}
	if !path.ValidIn(cur) {
		return ev, fmt.Errorf("route: not a path of the network: %s", path)
	}
	ev.Valid = true
	for i := 0; i+1 < len(path.Nodes); i++ {
		u, v := path.Nodes[i], path.Nodes[i+1]
		ev.Distance += cur.Point(u).EuclideanDistance(cur.Point(v))
		curCost, _ := cur.ArcCost(u, v)
		baseCost, _ := s.base.ArcCost(u, v)
		ev.CurrentCost += curCost
		ev.BaseCost += baseCost
		if curCost > baseCost {
			ev.CongestedHops++
		}
	}
	if ev.BaseCost > 0 {
		ev.CongestionRatio = ev.CurrentCost / ev.BaseCost
	} else {
		ev.CongestionRatio = 1
	}
	return ev, nil
}

// Display renders the network with the route overlaid: road nodes as dots,
// route nodes as 'o', endpoints as 'S' and 'D', landmarks by their names.
func (s *Service) Display(path graph.Path, width, height int) string {
	g := s.snap.Load().graph
	var pts []asciichart.Point
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			continue // isolated (lake) nodes are water, not roads
		}
		p := g.Point(u)
		pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: '.'})
	}
	for name, u := range g.NamedNodes() {
		p := g.Point(u)
		pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: name[0]})
	}
	for i, u := range path.Nodes {
		p := g.Point(u)
		glyph := byte('o')
		if i == 0 {
			glyph = 'S'
		} else if i == len(path.Nodes)-1 {
			glyph = 'D'
		}
		pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: glyph})
	}
	return asciichart.Map(pts, asciichart.Options{Width: width, Height: height})
}

// Alternates returns up to k loopless routes from from to to in increasing
// cost order under live costs (Yen's algorithm) — the "offer the traveller
// a choice" feature.
func (s *Service) Alternates(from, to graph.NodeID, k int) ([]core.Route, error) {
	return s.AlternatesCtx(context.Background(), from, to, k)
}

// AlternatesCtx is Alternates under a request lifecycle: Yen's algorithm
// runs a family of restricted Dijkstras, every one of which polls ctx.
// The whole family runs against one snapshot, so all k alternatives are
// priced under the same costs.
func (s *Service) AlternatesCtx(ctx context.Context, from, to graph.NodeID, k int) ([]core.Route, error) {
	g := s.snap.Load().graph
	results, err := search.KShortestCtx(ctx, g, from, to, k)
	if err != nil {
		return nil, err
	}
	out := make([]core.Route, 0, len(results))
	for _, r := range results {
		out = append(out, core.Route{
			Found:     true,
			Path:      r.Path,
			Cost:      r.Cost,
			Algorithm: core.Dijkstra,
			Trace:     r.Trace,
		})
	}
	return out, nil
}

// Nearest returns the road node closest to the point (x, y) — the map
// matching step between a traveller's position (GPS, in a modern ATIS) and
// the network. Isolated nodes (no roads) are skipped; ok is false when the
// network has no road nodes at all.
func (s *Service) Nearest(x, y float64) (graph.NodeID, bool) {
	g := s.snap.Load().graph
	p := graph.Point{X: x, Y: y}
	best := graph.Invalid
	bestDist := math.Inf(1)
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			continue
		}
		if d := g.Point(u).EuclideanDistance(p); d < bestDist {
			best, bestDist = u, d
		}
	}
	return best, best != graph.Invalid
}

// Reachable returns every node within the given travel budget of from,
// under live costs, with the cost of reaching each — the isochrone query
// ("what can I reach in 15 minutes?").
func (s *Service) Reachable(from graph.NodeID, budget float64) (map[graph.NodeID]float64, error) {
	return s.ReachableCtx(context.Background(), from, budget)
}

// ReachableCtx is Reachable under a request lifecycle: the bounded
// Dijkstra polls ctx and aborts with a typed lifecycle error rather than
// returning a truncated (and therefore wrong) isochrone.
func (s *Service) ReachableCtx(ctx context.Context, from graph.NodeID, budget float64) (map[graph.NodeID]float64, error) {
	return search.WithinCtx(ctx, s.snap.Load().graph, from, budget)
}

// DisplayReachable renders the isochrone: reachable nodes as 'o', the
// origin as 'S', the rest of the network as dots. The isochrone and the
// rendering read the same snapshot, so the picture cannot mix costs from
// two generations.
func (s *Service) DisplayReachable(from graph.NodeID, budget float64, width, height int) (string, error) {
	g := s.snap.Load().graph
	reach, err := search.WithinCtx(context.Background(), g, from, budget)
	if err != nil {
		return "", err
	}
	var pts []asciichart.Point
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			continue
		}
		p := g.Point(u)
		glyph := byte('.')
		if _, ok := reach[u]; ok {
			glyph = 'o'
		}
		pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: glyph})
	}
	p := g.Point(from)
	pts = append(pts, asciichart.Point{X: p.X, Y: p.Y, Glyph: 'S'})
	return asciichart.Map(pts, asciichart.Options{Width: width, Height: height}), nil
}

// ApplyCongestion scales the live cost of the directed segment (from, to)
// and its reverse (if present) by factor ≥ 0; factor 2 doubles travel time.
// It reports whether any edge changed.
func (s *Service) ApplyCongestion(from, to graph.NodeID, factor float64) (bool, error) {
	return s.ApplyCongestionCtx(context.Background(), from, to, factor)
}

// ApplyCongestionCtx is ApplyCongestion carrying the caller's context,
// so the CH customization inside the publish shows up as a span of the
// mutating request's trace.
func (s *Service) ApplyCongestionCtx(ctx context.Context, from, to graph.NodeID, factor float64) (bool, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.snap.Load()
	next := cur.graph.Clone()
	n, err := next.ApplyBatch([]graph.EdgeCostChange{
		{Tail: from, Head: to, Cost: factor, Scale: true},
		{Tail: to, Head: from, Cost: factor, Scale: true},
	})
	if err != nil {
		return false, err
	}
	if n > 0 {
		s.publishMutationLocked(ctx, cur, next)
	}
	return n > 0, nil
}

// ApplyRegionCongestion scales every edge with both endpoints within radius
// of center — a congested downtown at rush hour. It returns the number of
// directed edges affected. The whole region lands as one publish: one
// cost-generation bump, one cache invalidation, one customization pass.
func (s *Service) ApplyRegionCongestion(center graph.Point, radius, factor float64) (int, error) {
	return s.ApplyRegionCongestionCtx(context.Background(), center, radius, factor)
}

// ApplyRegionCongestionCtx is ApplyRegionCongestion carrying the
// caller's context for span attribution.
func (s *Service) ApplyRegionCongestionCtx(ctx context.Context, center graph.Point, radius, factor float64) (int, error) {
	if factor < 0 {
		return 0, fmt.Errorf("route: negative congestion factor %v", factor)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.snap.Load()
	var changes []graph.EdgeCostChange
	for _, e := range cur.graph.Edges() {
		// The scan precedes any mutation, so honouring a cancel here
		// keeps the batch atomic: either every regional edge changes or
		// none does.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if cur.graph.Point(e.Tail).EuclideanDistance(center) <= radius &&
			cur.graph.Point(e.Head).EuclideanDistance(center) <= radius {
			changes = append(changes, graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: e.Cost * factor})
		}
	}
	if len(changes) == 0 {
		return 0, nil
	}
	next := cur.graph.Clone()
	affected, err := next.ApplyBatch(changes)
	if err != nil {
		return 0, err
	}
	if affected > 0 {
		s.publishMutationLocked(ctx, cur, next)
	}
	return affected, nil
}

// ApplyTrafficBatch applies a burst of edge-cost changes as one traffic
// event — the entry point for traffic-feed streams. However many edges the
// batch touches, the service pays one publish: one cost-generation bump,
// one route-cache invalidation, and one customization pass; applying the
// same changes through per-edge mutators would pay all three per edge.
func (s *Service) ApplyTrafficBatch(changes []graph.EdgeCostChange) (int, error) {
	return s.ApplyTrafficBatchCtx(context.Background(), changes)
}

// ApplyTrafficBatchCtx is ApplyTrafficBatch carrying the caller's
// context, so a traced POST /v1/traffic/batch shows the customization
// pass it paid for.
func (s *Service) ApplyTrafficBatchCtx(ctx context.Context, changes []graph.EdgeCostChange) (int, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.snap.Load()
	next := cur.graph.Clone()
	affected, err := next.ApplyBatch(changes)
	if err != nil {
		return 0, err
	}
	if affected > 0 {
		s.trafficBatches.Inc()
		s.publishMutationLocked(ctx, cur, next)
	}
	return affected, nil
}

// ResetTraffic restores every edge to its free-flow cost.
func (s *Service) ResetTraffic() {
	s.ResetTrafficCtx(context.Background())
}

// ResetTrafficCtx is ResetTraffic carrying the caller's context for span
// attribution. It always publishes, even when costs were already
// pristine — a reset is an explicit traffic event and bumps the
// generation like any other.
func (s *Service) ResetTrafficCtx(ctx context.Context) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.publishMutationLocked(ctx, s.snap.Load(), s.base.Clone())
}
