// Package httpapi exposes the route package's three ATIS facilities over
// HTTP with JSON responses. cmd/atis-server is a thin wrapper around
// Handler; the package exists so the API surface is testable with
// net/http/httptest.
//
// The versioned surface (method-scoped, Go 1.22 patterns):
//
//	GET  /v1/route?from=A&to=B&algo=…&weight=…&budget_ms=…  route computation
//	POST /v1/routes/batch {"pairs":[{"from":"A","to":"B"},…]} batched computation
//	POST /v1/evaluate  {"nodes":[1,2,3]}                    route evaluation
//	GET  /v1/display?from=A&to=B                            route display (text map)
//	POST /v1/traffic   {"x":16,"y":16,"radius":4,"factor":2} regional congestion
//	POST /v1/traffic/batch {"changes":[{"from":"A","to":"B","cost":3.5},…]} batched edge updates
//	POST /v1/traffic/reset                                  restore free flow
//	GET  /v1/reachable?from=A&budget=5                      isochrone
//	GET  /v1/directions?from=A&to=B                         turn-by-turn guidance
//	GET  /v1/alternates?from=A&to=B&k=3                     k loopless routes
//	GET  /v1/map                                            map metadata
//	GET  /v1/stats                                          serving counters
//	GET  /v1/snapshot                                       published snapshot identity
//	GET  /v1/metrics                                        Prometheus/OpenMetrics exposition
//	GET  /v1/debug/traces                                   captured trace summaries
//	GET  /v1/debug/traces/{id}                              one trace's span tree
//
// The unversioned paths remain as aliases; they serve identically but
// carry a Deprecation header, a Link to the /v1 successor, a Sunset
// header with the scheduled removal date, and bump
// atis_http_legacy_path_total (see README for the removal schedule).
//
// Every response carries an X-ATIS-Snapshot header naming the publish
// generation of the snapshot the service held when the request began —
// the hook a fan-out gateway uses to tell which world each replica
// serves.
//
// Every endpoint runs behind the instrumentation middleware (see
// middleware.go). Search-running endpoints additionally run behind the
// request lifecycle (see lifecycle.go): a server-side deadline (default,
// or ?budget_ms= clamped to the configured maximum), the admission
// gate's weighted semaphore with bounded FIFO queue and load shedding,
// and per-algorithm-class expansion budgets. Failures use one structured
// error envelope, {"error":{"code":…,"message":…,"requestId":…}} — see
// errors.go for the code vocabulary.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// Server serves one route.Service.
type Server struct {
	svc      *route.Service
	log      *slog.Logger
	reg      *telemetry.Registry
	inFlight *telemetry.Gauge

	admissionCfg admission.Config
	gate         *admission.Gate

	// tracer drives per-request span capture (see internal/tracing). nil
	// means tracing is disabled: the middleware and every instrumentation
	// site below it stay on the zero-alloc nil-span path.
	tracer *tracing.Tracer

	// Request-lifecycle outcome counters; together with the gate's
	// admission counters they make every outcome class visible in
	// /metrics and /stats.
	canceledReqs *telemetry.Counter
	deadlineReqs *telemetry.Counter
	degradedReqs *telemetry.Counter
}

// Option customises a Server.
type Option func(*Server)

// WithLogger routes the server's structured logs to l (default
// slog.Default()).
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.log = l } }

// WithAdmission sizes the admission gate (see admission.Config; the
// zero value yields production defaults).
func WithAdmission(cfg admission.Config) Option {
	return func(s *Server) { s.admissionCfg = cfg }
}

// WithTracing enables per-request span tracing (see internal/tracing):
// every request builds a span tree, requests over cfg.SlowThreshold are
// always captured, a cfg.SampleRate fraction of the rest are kept, and
// captured traces are served by GET /v1/debug/traces. The tracer is also
// attached to the route service so background CH rebuilds produce traces.
func WithTracing(cfg tracing.Config) Option {
	return func(s *Server) { s.tracer = tracing.New(cfg) }
}

// NewServer wraps svc. HTTP metrics are recorded into the service's
// registry, so GET /metrics exposes the whole stack — HTTP layer,
// admission gate, route service, and (when enabled via
// search.EnableTelemetry) the search kernels — from one scrape.
func NewServer(svc *route.Service, opts ...Option) *Server {
	s := &Server{svc: svc, log: slog.Default(), reg: svc.Registry()}
	s.inFlight = s.reg.Gauge("atis_http_in_flight", "HTTP requests currently being served.")
	telemetry.RegisterRuntimeMetrics(s.reg)
	for _, o := range opts {
		o(s)
	}
	if s.tracer != nil {
		svc.SetTracer(s.tracer)
	}
	s.gate = admission.NewGate(s.admissionCfg, s.reg)
	s.canceledReqs = s.reg.Counter("atis_request_lifecycle_total",
		"Search requests by lifecycle outcome.", telemetry.L("outcome", "canceled"))
	s.deadlineReqs = s.reg.Counter("atis_request_lifecycle_total",
		"Search requests by lifecycle outcome.", telemetry.L("outcome", "deadline_exceeded"))
	s.degradedReqs = s.reg.Counter("atis_request_lifecycle_total",
		"Search requests by lifecycle outcome.", telemetry.L("outcome", "degraded"))
	return s
}

// Admission returns the server's admission gate (tests and operators
// inspect or pre-load it).
func (s *Server) Admission() *admission.Gate { return s.gate }

// Tracer returns the server's tracer, nil when tracing is disabled.
func (s *Server) Tracer() *tracing.Tracer { return s.tracer }

// Handler returns the API's http.Handler: the /v1 surface with
// method-scoped patterns, plus the legacy unversioned aliases, every
// endpoint instrumented. For each path the method-less pattern is also
// registered so wrong-method requests get the enveloped 405 instead of
// the mux's plain-text one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	endpoints := []struct {
		method string
		path   string
		h      http.HandlerFunc
	}{
		{http.MethodGet, "/route", s.handleRoute},
		{http.MethodPost, "/routes/batch", s.handleBatch},
		{http.MethodGet, "/stats", s.handleStats},
		{http.MethodPost, "/evaluate", s.handleEvaluate},
		{http.MethodGet, "/display", s.handleDisplay},
		{http.MethodPost, "/traffic", s.handleTraffic},
		{http.MethodPost, "/traffic/batch", s.handleTrafficBatch},
		{http.MethodPost, "/traffic/reset", s.handleTrafficReset},
		{http.MethodGet, "/reachable", s.handleReachable},
		{http.MethodGet, "/directions", s.handleDirections},
		{http.MethodGet, "/alternates", s.handleAlternates},
		{http.MethodGet, "/map", s.handleMap},
		{http.MethodGet, "/metrics", s.reg.Handler().ServeHTTP},
	}
	for _, ep := range endpoints {
		v1 := "/v1" + ep.path
		mux.Handle(ep.method+" "+v1, s.instrument(v1, ep.h))
		mux.Handle(v1, s.instrument(v1, s.methodNotAllowed(ep.method)))
		s.registerLegacy(mux, ep.method, ep.path, ep.h)
	}
	// The snapshot and trace debug endpoints are new with /v1 — no legacy
	// alias to carry, so they register outside the alias loop.
	for _, ep := range []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{http.MethodGet, "/v1/snapshot", s.handleSnapshot},
		{http.MethodGet, "/v1/debug/traces", s.handleDebugTraces},
		{http.MethodGet, "/v1/debug/traces/{id}", s.handleDebugTrace},
	} {
		mux.Handle(ep.method+" "+ep.path, s.instrument(ep.path, ep.h))
		mux.Handle(ep.path, s.instrument(ep.path, s.methodNotAllowed(ep.method)))
	}
	return mux
}

// registerLegacy mounts the unversioned alias of one endpoint behind the
// deprecation wrapper — the single funnel every legacy path goes
// through, so the Deprecation/Link/Sunset headers, the
// atis_http_legacy_path_total counter, and the removal schedule cannot
// drift per endpoint.
func (s *Server) registerLegacy(mux *http.ServeMux, method, path string, h http.HandlerFunc) {
	mux.Handle(method+" "+path, s.instrument(path, s.deprecate(path, h)))
	mux.Handle(path, s.instrument(path, s.deprecate(path, s.methodNotAllowed(method))))
}

func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("encoding response", "request_id", RequestID(r.Context()), "err", err)
	}
}

// resolve maps a landmark name or numeric id onto a node.
func (s *Server) resolve(spec string) (graph.NodeID, error) {
	g := s.svc.Graph()
	if id, ok := g.Lookup(spec); ok {
		return id, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 0 || n >= g.NumNodes() {
		return 0, withCode(CodeBadNode, fmt.Errorf("unknown node %q", spec))
	}
	return graph.NodeID(n), nil
}

// RouteResponse is the route body embedded verbatim in /v1/route,
// /v1/routes/batch items, and their legacy aliases. Cost is -1 when no
// route exists (JSON has no +Inf). Degraded marks answers served from
// the cache or CH index by the load-shedding degradation path rather
// than a fresh search.
type RouteResponse struct {
	Found      bool        `json:"found"`
	Cost       float64     `json:"cost"`
	Nodes      []int32     `json:"nodes,omitempty"`
	Algorithm  string      `json:"algorithm"`
	Iterations int         `json:"iterations"`
	Degraded   bool        `json:"degraded,omitempty"`
	Evaluation *Evaluation `json:"evaluation,omitempty"`
}

// routeToBody converts a computed route to its wire shape; Algorithm and
// Iterations are always populated, found or not.
func routeToBody(rt core.Route) RouteResponse {
	resp := RouteResponse{
		Found:      rt.Found,
		Cost:       rt.Cost,
		Algorithm:  rt.Algorithm.String(),
		Iterations: rt.Trace.Iterations,
	}
	if rt.Found {
		for _, u := range rt.Path.Nodes {
			resp.Nodes = append(resp.Nodes, int32(u))
		}
	} else {
		resp.Cost = -1
	}
	return resp
}

// Evaluation is the JSON form of route.Evaluation.
type Evaluation struct {
	Hops            int     `json:"hops"`
	Distance        float64 `json:"distance"`
	BaseCost        float64 `json:"baseCost"`
	CurrentCost     float64 `json:"currentCost"`
	CongestionRatio float64 `json:"congestionRatio"`
	CongestedHops   int     `json:"congestedHops"`
}

func evalToBody(ev route.Evaluation) *Evaluation {
	return &Evaluation{
		Hops:            ev.Hops,
		Distance:        ev.Distance,
		BaseCost:        ev.BaseCost,
		CurrentCost:     ev.CurrentCost,
		CongestionRatio: ev.CongestionRatio,
		CongestedHops:   ev.CongestedHops,
	}
}

func (s *Server) computeOptions(r *http.Request) (core.Options, error) {
	opts := core.Options{}
	if a := r.URL.Query().Get("algo"); a != "" {
		algo, err := core.ParseAlgorithm(a)
		if err != nil {
			return opts, withCode(CodeBadAlgo, err)
		}
		opts.Algorithm = algo
	}
	if ws := r.URL.Query().Get("weight"); ws != "" {
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil || w < 0 {
			return opts, withCode(CodeBadRequest, fmt.Errorf("bad weight %q", ws))
		}
		opts.Weight = w
	}
	return opts, nil
}

// parseRouteQuery resolves the endpoints and options of a single-pair
// query, writing the error response itself on failure.
func (s *Server) parseRouteQuery(w http.ResponseWriter, r *http.Request) (from, to graph.NodeID, opts core.Options, ok bool) {
	from, err := s.resolve(r.URL.Query().Get("from"))
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "", err)
		return 0, 0, opts, false
	}
	to, err = s.resolve(r.URL.Query().Get("to"))
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "", err)
		return 0, 0, opts, false
	}
	opts, err = s.computeOptions(r)
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "", err)
		return 0, 0, opts, false
	}
	return from, to, opts, true
}

// computeFromQuery is the full single-pair pipeline — parse, admit,
// search — shared by /display and /directions. It writes the error
// response itself; callers render the route on ok.
func (s *Server) computeFromQuery(w http.ResponseWriter, r *http.Request) (core.Route, bool) {
	from, to, opts, ok := s.parseRouteQuery(w, r)
	if !ok {
		return core.Route{}, false
	}
	ctx, done, err := s.admit(w, r, opts.Algorithm, false)
	if err != nil {
		return core.Route{}, false
	}
	defer done()
	rt, err := s.svc.ComputeCtx(ctx, from, to, opts)
	if err != nil {
		s.searchError(w, r, err)
		return core.Route{}, false
	}
	return rt, true
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	from, to, opts, ok := s.parseRouteQuery(w, r)
	if !ok {
		return
	}
	ctx, done, err := s.admit(w, r, opts.Algorithm, true)
	if err != nil {
		if errors.Is(err, admission.ErrShed) && s.gate.Config().Degrade {
			// Degradation mode: a shed route request may still be
			// answerable without search work — from the cache or the CH
			// index — which beats a 503 for the traveller.
			if rt, served := s.svc.ComputeDegraded(from, to, opts); served {
				s.degradedReqs.Inc()
				resp := routeToBody(rt)
				resp.Degraded = true
				s.writeJSON(w, r, resp)
				return
			}
			s.shedResponse(w, r, err)
		}
		return
	}
	defer done()
	rt, err := s.svc.ComputeCtx(ctx, from, to, opts)
	if err != nil {
		s.searchError(w, r, err)
		return
	}
	resp := routeToBody(rt)
	if rt.Found {
		if ev, err := s.svc.Evaluate(rt.Path); err == nil {
			resp.Evaluation = evalToBody(ev)
		}
	}
	s.writeJSON(w, r, resp)
}

// maxBatchPairs bounds one /routes/batch request; larger fleets should
// split their requests.
const maxBatchPairs = 1024

// handleBatch fans a slice of origin–destination pairs across the route
// service's worker pool: POST /v1/routes/batch
// {"pairs":[{"from":"A","to":"B"},…],"algo":"dijkstra","weight":1}.
// The response carries one entry per pair, positionally aligned, each
// embedding the exact RouteResponse shape of /v1/route; a bad endpoint
// yields a per-entry error instead of failing the batch. The whole batch
// is admitted as one request under the algorithm's class; a mid-batch
// deadline or cancel leaves per-entry errors on the unprocessed pairs.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Pairs []struct {
			From string `json:"from"`
			To   string `json:"to"`
		} `json:"pairs"`
		Algo   string  `json:"algo"`
		Weight float64 `json:"weight"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if len(body.Pairs) == 0 {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(body.Pairs) > maxBatchPairs {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("batch of %d pairs exceeds limit %d", len(body.Pairs), maxBatchPairs))
		return
	}
	opts := core.Options{Weight: body.Weight}
	if body.Algo != "" {
		algo, err := core.ParseAlgorithm(body.Algo)
		if err != nil {
			s.apiError(w, r, http.StatusBadRequest, CodeBadAlgo, err)
			return
		}
		opts.Algorithm = algo
	}
	// Record the batch size on the root span before admission, so a shed
	// batch's trace still shows how much work was turned away (the
	// admission child span carries the outcome).
	sp := tracing.FromContext(r.Context())
	sp.SetInt("batch.pairs", int64(len(body.Pairs)))
	ctx, done, err := s.admit(w, r, opts.Algorithm, false)
	if err != nil {
		return
	}
	defer done()

	type item struct {
		RouteResponse
		// RequestID is the whole batch's request-scoped id: the batch is
		// admitted and traced as one request, so every item joins to the
		// same access-log line and (when captured) the same trace.
		RequestID string `json:"requestId"`
		Error     string `json:"error,omitempty"`
	}
	reqID := RequestID(r.Context())
	items := make([]item, len(body.Pairs))
	pairs := make([]route.Pair, 0, len(body.Pairs))
	idx := make([]int, 0, len(body.Pairs)) // items slot per resolvable pair
	for i, p := range body.Pairs {
		from, err := s.resolve(p.From)
		if err != nil {
			items[i] = item{RouteResponse: RouteResponse{Cost: -1, Algorithm: opts.Algorithm.String()}, RequestID: reqID, Error: err.Error()}
			continue
		}
		to, err := s.resolve(p.To)
		if err != nil {
			items[i] = item{RouteResponse: RouteResponse{Cost: -1, Algorithm: opts.Algorithm.String()}, RequestID: reqID, Error: err.Error()}
			continue
		}
		pairs = append(pairs, route.Pair{From: from, To: to})
		idx = append(idx, i)
	}

	failed := len(body.Pairs) - len(pairs)
	for j, res := range s.svc.ComputeBatchCtx(ctx, pairs, opts) {
		i := idx[j]
		if res.Err != nil {
			items[i] = item{RouteResponse: RouteResponse{Cost: -1, Algorithm: opts.Algorithm.String()}, RequestID: reqID, Error: res.Err.Error()}
			failed++
			continue
		}
		items[i] = item{RouteResponse: routeToBody(res.Route), RequestID: reqID}
	}
	sp.SetInt("batch.errors", int64(failed))
	s.writeJSON(w, r, map[string]any{"count": len(items), "routes": items})
}

// handleStats reports the serving stack's counters:
// GET /v1/stats → {"cacheHits":…,"cacheMisses":…,"cacheEntries":…,
// "costGeneration":…,"snapshot":{…},"ch":{…},"admission":{…},
// "lifecycle":{…}}. Every field reads lock-free state — counters,
// the published snapshot — so a scrape can never block behind a
// traffic writer mid-customization.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.svc.CacheStats()
	sn := s.svc.Snapshot()
	s.writeJSON(w, r, map[string]any{
		"cacheHits":      hits,
		"cacheMisses":    misses,
		"cacheEntries":   entries,
		"costGeneration": sn.CostGeneration(),
		"snapshot":       snapshotBody(sn),
		"ch":             s.svc.CHStats(),
		"admission":      s.gate.Stats(),
		"lifecycle": map[string]uint64{
			"canceled":         s.canceledReqs.Value(),
			"deadlineExceeded": s.deadlineReqs.Value(),
			"degraded":         s.degradedReqs.Value(),
		},
	})
}

// snapshotBody is the wire shape of a snapshot's identity, shared by
// /v1/stats and /v1/snapshot so a gateway reads the same fields either
// way.
func snapshotBody(sn *route.Snapshot) map[string]any {
	return map[string]any{
		"version":     sn.CostGeneration(),
		"generation":  sn.Generation(),
		"publishedAt": sn.PublishedAt().UTC().Format(time.RFC3339Nano),
	}
}

// handleSnapshot exposes the published snapshot's identity:
// GET /v1/snapshot → {"version":…,"generation":…,"publishedAt":…,
// "costGeneration":…,"ch":{"ready":…,"shortcuts":…}}. The generation
// here is the same number every response carries in X-ATIS-Snapshot, so
// a gateway doing snapshot-version-aware fan-out can poll this endpoint
// to learn which world a replica serves and route consistency-sensitive
// request pairs to replicas publishing the same generation.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sn := s.svc.Snapshot()
	body := snapshotBody(sn)
	body["costGeneration"] = sn.CostGeneration()
	chState := map[string]any{"ready": sn.CH() != nil}
	if ix := sn.CH(); ix != nil {
		chState["shortcuts"] = ix.Shortcuts()
	}
	body["ch"] = chState
	s.writeJSON(w, r, body)
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Nodes []int32 `json:"nodes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	p := graph.Path{}
	for _, n := range body.Nodes {
		p.Nodes = append(p.Nodes, graph.NodeID(n))
	}
	ev, err := s.svc.Evaluate(p)
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.writeJSON(w, r, evalToBody(ev))
}

func (s *Server) handleDisplay(w http.ResponseWriter, r *http.Request) {
	rt, ok := s.computeFromQuery(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.svc.Display(rt.Path, 80, 40))
}

func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	var body struct {
		X, Y, Radius, Factor float64
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	n, err := s.svc.ApplyRegionCongestionCtx(r.Context(), graph.Point{X: body.X, Y: body.Y}, body.Radius, body.Factor)
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.writeJSON(w, r, map[string]int{"affectedEdges": n})
}

// maxTrafficChanges bounds one /traffic/batch request; a feed pushing more
// per tick should split it — each request is one cost-generation bump and
// one customization pass either way.
const maxTrafficChanges = 4096

// handleTrafficBatch applies a traffic feed's edge updates as one batch:
// POST /v1/traffic/batch
// {"changes":[{"from":"A","to":"B","cost":3.5},{"from":"7","to":"8","factor":2}]}.
// Each change names a directed edge by landmark name or node id and sets
// either an absolute cost or a multiplicative factor (exactly one). The
// whole batch is validated first and applied atomically — one
// cost-generation bump, one route-cache invalidation, one CH metric
// customization — so a half-applied feed tick is never observable.
func (s *Server) handleTrafficBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Changes []struct {
			From   string   `json:"from"`
			To     string   `json:"to"`
			Cost   *float64 `json:"cost,omitempty"`
			Factor *float64 `json:"factor,omitempty"`
		} `json:"changes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if len(body.Changes) == 0 {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(body.Changes) > maxTrafficChanges {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("batch of %d changes exceeds limit %d", len(body.Changes), maxTrafficChanges))
		return
	}
	changes := make([]graph.EdgeCostChange, 0, len(body.Changes))
	for i, c := range body.Changes {
		from, err := s.resolve(c.From)
		if err != nil {
			s.apiError(w, r, http.StatusBadRequest, "", fmt.Errorf("change %d: %w", i, err))
			return
		}
		to, err := s.resolve(c.To)
		if err != nil {
			s.apiError(w, r, http.StatusBadRequest, "", fmt.Errorf("change %d: %w", i, err))
			return
		}
		if (c.Cost == nil) == (c.Factor == nil) {
			s.apiError(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("change %d: exactly one of cost or factor required", i))
			return
		}
		ch := graph.EdgeCostChange{Tail: from, Head: to}
		if c.Cost != nil {
			ch.Cost = *c.Cost
		} else {
			ch.Cost = *c.Factor
			ch.Scale = true
		}
		changes = append(changes, ch)
	}
	n, err := s.svc.ApplyTrafficBatchCtx(r.Context(), changes)
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.writeJSON(w, r, map[string]int{"affectedEdges": n, "changes": len(changes)})
}

func (s *Server) handleTrafficReset(w http.ResponseWriter, r *http.Request) {
	s.svc.ResetTrafficCtx(r.Context())
	s.writeJSON(w, r, map[string]string{"status": "free flow restored"})
}

// handleDirections returns turn-by-turn guidance for the computed route:
// GET /v1/directions?from=A&to=B[&algo=…].
func (s *Server) handleDirections(w http.ResponseWriter, r *http.Request) {
	rt, ok := s.computeFromQuery(w, r)
	if !ok {
		return
	}
	if !rt.Found {
		s.apiError(w, r, http.StatusNotFound, CodeNoRoute, fmt.Errorf("no route"))
		return
	}
	ins, err := s.svc.Directions(rt.Path)
	if err != nil {
		s.apiError(w, r, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	type step struct {
		Action   string  `json:"action"`
		Heading  string  `json:"heading,omitempty"`
		Distance float64 `json:"distance"`
		Segments int     `json:"segments"`
		At       int32   `json:"at"`
	}
	steps := make([]step, 0, len(ins))
	for _, in := range ins {
		steps = append(steps, step{
			Action: in.Action, Heading: in.Heading,
			Distance: in.Distance, Segments: in.Segments, At: int32(in.At),
		})
	}
	s.writeJSON(w, r, map[string]any{"cost": rt.Cost, "steps": steps})
}

// handleAlternates lists up to k loopless routes:
// GET /v1/alternates?from=A&to=B&k=3.
func (s *Server) handleAlternates(w http.ResponseWriter, r *http.Request) {
	from, err := s.resolve(r.URL.Query().Get("from"))
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "", err)
		return
	}
	to, err := s.resolve(r.URL.Query().Get("to"))
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "", err)
		return
	}
	k := 3
	if ks := r.URL.Query().Get("k"); ks != "" {
		k, err = strconv.Atoi(ks)
		if err != nil || k < 1 || k > 16 {
			s.apiError(w, r, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad k %q (want 1..16)", ks))
			return
		}
	}
	// Yen's algorithm runs a family of Dijkstras; admit under the
	// best-first class.
	ctx, done, err := s.admit(w, r, core.Dijkstra, false)
	if err != nil {
		return
	}
	defer done()
	routes, err := s.svc.AlternatesCtx(ctx, from, to, k)
	if err != nil {
		s.searchError(w, r, err)
		return
	}
	type alt struct {
		Cost  float64 `json:"cost"`
		Nodes []int32 `json:"nodes"`
	}
	alts := make([]alt, 0, len(routes))
	for _, rt := range routes {
		a := alt{Cost: rt.Cost}
		for _, u := range rt.Path.Nodes {
			a.Nodes = append(a.Nodes, int32(u))
		}
		alts = append(alts, a)
	}
	s.writeJSON(w, r, map[string]any{"count": len(alts), "routes": alts})
}

// handleReachable answers the isochrone query:
// GET /v1/reachable?from=A&budget=5 → {"count":N,"nodes":{"17":3.2,…}}.
func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	from, err := s.resolve(r.URL.Query().Get("from"))
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, "", err)
		return
	}
	budget, err := strconv.ParseFloat(r.URL.Query().Get("budget"), 64)
	if err != nil {
		s.apiError(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("bad budget %q", r.URL.Query().Get("budget")))
		return
	}
	ctx, done, err := s.admit(w, r, core.Dijkstra, false)
	if err != nil {
		return
	}
	defer done()
	reach, err := s.svc.ReachableCtx(ctx, from, budget)
	if err != nil {
		s.searchError(w, r, err)
		return
	}
	nodes := make(map[string]float64, len(reach))
	for u, c := range reach {
		nodes[strconv.Itoa(int(u))] = c
	}
	s.writeJSON(w, r, map[string]any{"count": len(reach), "nodes": nodes})
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	g := s.svc.Graph()
	landmarks := map[string]int32{}
	for name, id := range g.NamedNodes() {
		landmarks[name] = int32(id)
	}
	s.writeJSON(w, r, map[string]any{
		"nodes":     g.NumNodes(),
		"edges":     g.NumEdges(),
		"landmarks": landmarks,
	})
}
