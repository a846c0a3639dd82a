package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/route"
)

// The traced pass times each layer from outside, with spans around calls
// into each module's public functions; the program's own tracer stays
// disabled. Its parts:
//
//   - the real stack serves the workload's blocks; the open-loop
//     requests of odd blocks are traced: a wrapper around
//     httpapi.Server.Handler records a span for each, and the client's
//     span around the same request gives the wire time. Even blocks'
//     requests are the untraced baseline for the tracing overhead;
//   - a replica stack built from the same graph replays the traced
//     requests in-process, in the order and on the snapshot versions that
//     served them: sweep A through Handler().ServeHTTP (handler time and
//     allocations), then — after a reset that retires every cached route,
//     so the replica's cache again sees exactly what the real one saw —
//     sweep B through route.Service, ch.Index / core.Planner, Evaluate and
//     the JSON encoding of an httpapi.RouteResponse, and the write path
//     through graph.Graph, ch.Topology and route.Service;
//   - a kernel pass times ch, dijkstra, astar-euclidean and iterative on
//     the same pairs, and a loop times the admission gate.
//
// Replayed child spans are timed by their own calls, not nested inside
// the parent's interval; a span's self time is its duration minus its
// children's durations.

// traceWritesReplayed caps the probe batches sweep B replays on workloads
// without a live feed.
const traceWritesReplayed = 50

// kernelPairs caps the pairs of the kernel pass.
const kernelPairs = 1000

// span is one timed interval. Times are offsets from the run's epoch.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Hit    bool   `json:"hit,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type recorder struct {
	spans []span
}

func (r *recorder) add(trace string, parent int, name string, start, end time.Duration) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	return id
}

// selfTimes returns, per span name, each span's duration minus its
// children's, in microseconds.
func (r *recorder) selfTimes() map[string][]float64 {
	child := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], us(s.dur()-child[s.ID]))
	}
	return out
}

func (r *recorder) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], us(s.dur()))
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handlerSpans wraps the real API handler and records the handler
// interval of every traced request (X-Request-ID starting with 'o').
type handlerSpans struct {
	lg *loadgen

	mu  sync.Mutex
	got map[string][2]time.Duration
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !strings.HasPrefix(id, "o") {
			next.ServeHTTP(w, r)
			return
		}
		start := h.lg.now()
		next.ServeHTTP(w, r)
		end := h.lg.now()
		h.mu.Lock()
		h.got[id] = [2]time.Duration{start, end}
		h.mu.Unlock()
	})
}

func (h *handlerSpans) get(id string) ([2]time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	iv, ok := h.got[id]
	return iv, ok
}

// replica is the second stack the sweeps replay against.
type replica struct {
	svc     *route.Service
	h       http.Handler
	gate    *admission.Gate
	lg      *loadgen
	rec     *recorder
	writes  []batch // the run's successful writes, in publish order
	version int     // writes applied to svc since the last reset
	// publishBytes is the allocation of each decomposed publish.
	publishBytes []float64
}

func newReplica() (*replica, error) {
	g, err := generateGraph()
	if err != nil {
		return nil, err
	}
	// Not newService: search.EnableTelemetry installs a process-wide
	// recorder, which must keep feeding the real server's registry.
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		return nil, err
	}
	api := newAPI(svc)
	return &replica{svc: svc, h: api.Handler(), gate: api.Admission()}, nil
}

// advance brings the replica to version v: one merged batch in sweep A
// (later changes win, as in ApplyBatch, so the costs are exact), or batch
// by batch with the write path decomposed in sweep B.
func (rp *replica) advance(v int, decompose bool) error {
	if v <= rp.version {
		return nil
	}
	if !decompose {
		var merged []graph.EdgeCostChange
		for _, b := range rp.writes[rp.version:v] {
			merged = append(merged, b.changes...)
		}
		rp.version = v
		_, err := rp.svc.ApplyTrafficBatch(merged)
		return err
	}
	for ; rp.version < v; rp.version++ {
		if err := rp.publish(fmt.Sprintf("w%d", rp.version), rp.writes[rp.version]); err != nil {
			return err
		}
	}
	return nil
}

// publish times one write from outside: Graph.Clone and Graph.ApplyBatch
// on the published graph, Topology.NewIndex on the result, and the
// service's own ApplyTrafficBatchCtx with its allocation delta. The parts
// run before the service call on even writes and after it on odd ones,
// so neither side of the self-time difference always finds warm memory.
func (rp *replica) publish(trace string, b batch) error {
	cur := rp.svc.Snapshot()
	topo := cur.CH().Topology()
	var t0, t1, t2, t3, t4, t5 time.Duration
	parts := func() error {
		t0 = rp.lg.now()
		next := cur.Graph().Clone()
		t1 = rp.lg.now()
		if _, err := next.ApplyBatch(b.changes); err != nil {
			return err
		}
		t2 = rp.lg.now()
		_, err := topo.NewIndex(next)
		t3 = rp.lg.now()
		return err
	}
	first := len(rp.publishBytes)%2 == 0
	if first {
		if err := parts(); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t4 = rp.lg.now()
	if _, err := rp.svc.ApplyTrafficBatchCtx(context.Background(), b.changes); err != nil {
		return err
	}
	t5 = rp.lg.now()
	runtime.ReadMemStats(&m1)
	if !first {
		if err := parts(); err != nil {
			return err
		}
	}
	pub := rp.rec.add(trace, 0, "route.publish", t4, t5)
	rp.rec.add(trace, pub, "graph.clone", t0, t1)
	rp.rec.add(trace, pub, "graph.apply", t1, t2)
	rp.rec.add(trace, pub, "ch.customize", t2, t3)
	rp.publishBytes = append(rp.publishBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	return nil
}

// traced is one traced request: its read, id, the snapshot version that
// served it, and the id of its replayed handler span.
type traced struct {
	r       read
	id      string
	version int
	handler int
}

func algoOf(r read) core.Algorithm {
	if r.algo == "" {
		return core.AStarEuclidean
	}
	a, err := core.ParseAlgorithm(r.algo)
	if err != nil {
		panic(err) // the generator only emits valid names
	}
	return a
}

type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(b), nil
}

// sweepA replays each traced request through the replica's
// Handler().ServeHTTP and returns allocations and bytes per request,
// measured over the reads only.
func (rp *replica) sweepA(reqs []traced) (allocs, bytes float64, err error) {
	hreqs := make([]*http.Request, len(reqs))
	ws := make([]*discardWriter, len(reqs))
	for i, t := range reqs {
		hreqs[i] = httptest.NewRequest("GET", t.r.target(), nil)
		hreqs[i].Header.Set("X-Request-ID", t.id)
		ws[i] = &discardWriter{h: make(http.Header)}
	}
	var mallocs, total uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		if reqs[i].version > rp.version {
			runtime.ReadMemStats(&m1)
			mallocs, total = mallocs+m1.Mallocs-m0.Mallocs, total+m1.TotalAlloc-m0.TotalAlloc
			if err := rp.advance(reqs[i].version, false); err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&m0)
		}
		t0 := rp.lg.now()
		rp.h.ServeHTTP(ws[i], hreqs[i])
		t1 := rp.lg.now()
		if ws[i].status != http.StatusOK {
			return 0, 0, fmt.Errorf("replica answered %s with %d", reqs[i].id, ws[i].status)
		}
		reqs[i].handler = rp.rec.add(reqs[i].id, 0, "httpapi.handler.replay", t0, t1)
	}
	runtime.ReadMemStats(&m1)
	mallocs, total = mallocs+m1.Mallocs-m0.Mallocs, total+m1.TotalAlloc-m0.TotalAlloc
	n := float64(len(reqs))
	return float64(mallocs) / n, float64(total) / n, nil
}

// reset retires every cached route (a reset publishes a new generation)
// and returns the replica to free-flow costs, version 0.
func (rp *replica) reset() {
	rp.svc.ResetTraffic()
	rp.version = 0
}

// sweepB replays each traced request layer by layer.
func (rp *replica) sweepB(reqs []traced) error {
	ctx := context.Background()
	planners := map[*graph.Graph]*core.Planner{}
	for i := range reqs {
		t := &reqs[i]
		if err := rp.advance(t.version, true); err != nil {
			return err
		}
		sn := rp.svc.Snapshot()
		opts := core.Options{Algorithm: algoOf(t.r)}
		from, to := graph.NodeID(t.r.from), graph.NodeID(t.r.to)
		kernelName := "ch.query"
		kernel := func() error {
			_, err := sn.CH().QueryCtx(ctx, from, to)
			return err
		}
		if opts.Algorithm != core.CH {
			kernelName = "search." + opts.Algorithm.String()
			p := planners[sn.Graph()]
			if p == nil {
				p = core.MustNew(sn.Graph())
				planners[sn.Graph()] = p
			}
			kernel = func() error {
				_, err := p.RouteCtx(ctx, from, to, opts)
				return err
			}
		}
		// The kernel runs once before the service call and once after, so
		// the service call and the timed kernel both find warm memory.
		if err := kernel(); err != nil {
			return err
		}
		h0, _, _ := rp.svc.CacheStats()
		c0 := rp.lg.now()
		rt, err := rp.svc.ComputeCtx(ctx, from, to, opts)
		c1 := rp.lg.now()
		if err != nil {
			return err
		}
		h1, _, _ := rp.svc.CacheStats()
		k0 := rp.lg.now()
		if err := kernel(); err != nil {
			return err
		}
		k1 := rp.lg.now()
		e0 := rp.lg.now()
		ev, err := rp.svc.Evaluate(rt.Path)
		e1 := rp.lg.now()
		if err != nil {
			return err
		}
		body := httpapi.RouteResponse{
			Found: rt.Found, Cost: rt.Cost, Algorithm: rt.Algorithm.String(), Iterations: rt.Trace.Iterations,
			Evaluation: &httpapi.Evaluation{
				Hops: ev.Hops, Distance: ev.Distance, BaseCost: ev.BaseCost, CurrentCost: ev.CurrentCost,
				CongestionRatio: ev.CongestionRatio, CongestedHops: ev.CongestedHops,
			},
		}
		for _, u := range rt.Path.Nodes {
			body.Nodes = append(body.Nodes, int32(u))
		}
		n0 := rp.lg.now()
		if err := json.NewEncoder(io.Discard).Encode(body); err != nil {
			return err
		}
		n1 := rp.lg.now()

		comp := rp.rec.add(t.id, t.handler, "route.compute", c0, c1)
		rp.rec.spans[comp-1].Hit = h1 > h0
		if h1 == h0 {
			rp.rec.add(t.id, comp, kernelName, k0, k1)
		}
		rp.rec.add(t.id, t.handler, "route.evaluate", e0, e1)
		rp.rec.add(t.id, t.handler, "httpapi.encode", n0, n1)
	}
	return nil
}

// kernelPass times every kernel on the same pairs against one snapshot,
// interleaved pair by pair so machine noise hits all of them alike, and
// reports through add.
func kernelPass(ix *ch.Index, g *graph.Graph, pairs []read, add func(name string, value float64, unit string, samples int)) error {
	ctx := context.Background()
	p := core.MustNew(g)
	var chUS, settled, relaxed []float64
	var chTotal, dijTotal time.Duration
	algos := []core.Algorithm{core.Dijkstra, core.AStarEuclidean, core.Iterative}
	times := make([][]float64, len(algos))
	exps := make([][]float64, len(algos))
	for _, pr := range pairs {
		from, to := graph.NodeID(pr.from), graph.NodeID(pr.to)
		t0 := time.Now()
		res, err := ix.QueryCtx(ctx, from, to)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		chTotal += d
		chUS = append(chUS, us(d))
		settled = append(settled, float64(res.Settled))
		relaxed = append(relaxed, float64(res.Relaxed))
		for i, a := range algos {
			t0 := time.Now()
			rt, err := p.RouteCtx(ctx, from, to, core.Options{Algorithm: a})
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if a == core.Dijkstra {
				dijTotal += d
			}
			times[i] = append(times[i], us(d))
			exps[i] = append(exps[i], float64(rt.Trace.Expansions))
		}
	}
	n := len(pairs)
	add("ch.query_us_p50", median(chUS), "us", n)
	add("ch.query_us_p99", quantile(chUS, 0.99), "us", n)
	add("ch.settled_per_query", mean(settled), "count", n)
	add("ch.relaxed_per_query", mean(relaxed), "count", n)
	add("ch.speedup_vs_dijkstra", dijTotal.Seconds()/chTotal.Seconds(), "x", n)
	for i, a := range algos {
		name := strings.TrimSuffix(a.String(), "-euclidean")
		add("search."+name+"_us_p50", median(times[i]), "us", n)
		add("search."+name+"_expansions_per_query", mean(exps[i]), "count", n)
	}
	return nil
}

// admissionNs times an uncontended Gate.Acquire plus release.
func admissionNs(g *admission.Gate) (float64, error) {
	const iters = 20000
	var rounds []float64
	ctx := context.Background()
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			release, err := g.Acquire(ctx, 1)
			if err != nil {
				return 0, err
			}
			release()
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/iters)
	}
	return median(rounds), nil
}

// runTraced is the traced pass.
func runTraced(w workload, seed int64, seconds int) (*result, error) {
	lg := &loadgen{epoch: time.Now()}
	hs := &handlerSpans{lg: lg, got: make(map[string][2]time.Duration)}
	st, _, err := startStack(hs.wrap)
	if err != nil {
		return nil, err
	}
	defer st.stop()

	t0 := time.Now()
	topo, err := ch.BuildTopology(st.svc.Graph(), ch.Options{})
	if err != nil {
		return nil, err
	}
	topoS := time.Since(t0).Seconds()
	rp, err := newReplica()
	if err != nil {
		return nil, err
	}
	rp.lg = lg
	rp.rec = &recorder{}

	s, err := begin(w, st, lg, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer s.close()

	st0, err := scrapeStats(s.conns[0])
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	var rt1 runtimeSample
	var st1 serverStats
	// Odd blocks' open-loop requests are traced, even blocks' not.
	m, err := s.measure(func(i, b int) string {
		if b%2 == 1 {
			return "o" + itoa(i)
		}
		return "u" + itoa(i)
	}, func() (err error) {
		rt1 = readRuntime()
		st1, err = scrapeStats(s.conns[0])
		return err
	})
	if err != nil {
		return nil, err
	}
	if s.res.failed > 0 {
		return s.res, nil // the replay needs every answer; report the failures
	}
	rp.writes = m.writes
	if !w.feed {
		rp.writes = m.writes[:traceWritesReplayed]
	}
	isTraced := func(i int) bool { return m.openOps[i].id[0] == 'o' }
	openRes, openOps := m.open, m.openOps

	// Client and real-handler spans of the traced requests.
	openChecks := m.checks[len(m.checks)-len(openRes):]
	var reqs []traced
	var uLat, tLat []float64
	for i := range openRes {
		lat := latencies(openRes[i : i+1])
		if !isTraced(i) {
			uLat = append(uLat, lat...)
			continue
		}
		tLat = append(tLat, lat...)
		id := openOps[i].id
		reqs = append(reqs, traced{r: s.str.open[i], id: id, version: openChecks[i].version})
		client := rp.rec.add(id, 0, "client", openRes[i].sent, openRes[i].done)
		if iv, ok := hs.get(id); ok {
			rp.rec.add(id, client, "httpapi.handler", iv[0], iv[1])
		}
	}
	// Replay in the order of the snapshot versions that served the reads.
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].version < reqs[j].version })

	allocs, bytes, err := rp.sweepA(reqs)
	if err != nil {
		return nil, err
	}
	rp.reset()
	if err := rp.sweepB(reqs); err != nil {
		return nil, err
	}
	if !w.feed {
		if err := rp.advance(len(rp.writes), true); err != nil {
			return nil, err
		}
	}

	r := s.res
	self := rp.rec.selfTimes()
	dur := rp.rec.durations()

	// Coverage over the traced requests: the replayed layers' self times
	// sum to the replayed handler's duration; the denominator is what the
	// client saw, the real handler plus the wire.
	var replayed, handled, wire float64
	handlerOf := map[string]span{}
	for _, sp := range rp.rec.spans {
		if sp.Name == "httpapi.handler" || sp.Name == "httpapi.handler.replay" {
			handlerOf[sp.Trace+"/"+sp.Name] = sp
		}
	}
	for _, sp := range rp.rec.spans {
		if sp.Name != "client" {
			continue
		}
		h, ok1 := handlerOf[sp.Trace+"/httpapi.handler"]
		rh, ok2 := handlerOf[sp.Trace+"/httpapi.handler.replay"]
		if ok1 && ok2 {
			replayed += us(rh.dur())
			handled += us(h.dur())
			wire += us(sp.dur() - h.dur())
		}
	}

	lagUS := lags(openRes)
	var reads float64
	for _, span := range m.closedSpan {
		reads += float64(span[1] - span[0])
	}
	reads += float64(len(openRes))
	hits := float64(st1.CacheHits - st0.CacheHits)
	lookups := hits + float64(st1.CacheMisses-st0.CacheMisses)
	granted, queued := float64(st1.Admission.Granted-st0.Admission.Granted), float64(st1.Admission.Queued-st0.Admission.Queued)

	r.add("loadgen.lag_us_p50", median(lagUS), "us", len(lagUS))
	r.add("loadgen.lag_us_p99", quantile(lagUS, 0.99), "us", len(lagUS))
	r.add("httpapi.handler_us_p50", median(dur["httpapi.handler"]), "us", len(dur["httpapi.handler"]))
	r.add("httpapi.handler_us_p99", quantile(dur["httpapi.handler"], 0.99), "us", len(dur["httpapi.handler"]))
	r.add("httpapi.wire_us_p50", median(self["client"]), "us", len(self["client"]))
	r.add("httpapi.self_us_p50", median(self["httpapi.handler.replay"]), "us", len(self["httpapi.handler.replay"]))
	r.add("httpapi.encode_us_p50", median(dur["httpapi.encode"]), "us", len(dur["httpapi.encode"]))
	r.add("httpapi.allocs_per_req", allocs, "count", len(reqs))
	r.add("httpapi.bytes_per_req", bytes, "B", len(reqs))
	acq, err := admissionNs(rp.gate)
	if err != nil {
		return nil, err
	}
	r.add("admission.acquire_ns", acq, "ns", 5)
	r.add("admission.queued_ratio", queued/max(1, granted+queued), "ratio", int(granted+queued))
	r.add("admission.shed", float64(st1.Admission.Shed-st0.Admission.Shed), "count", int(reads))
	r.add("route.compute_us_p50", median(dur["route.compute"]), "us", len(dur["route.compute"]))
	r.add("route.compute_us_p99", quantile(dur["route.compute"], 0.99), "us", len(dur["route.compute"]))
	r.add("route.self_us_p50", median(self["route.compute"]), "us", len(self["route.compute"]))
	r.add("route.evaluate_us_p50", median(dur["route.evaluate"]), "us", len(dur["route.evaluate"]))
	r.add("route.cache_hit_ratio", hits/max(1, lookups), "ratio", int(lookups))
	r.add("route.cache_evictions_per_1k", 1000*(st1.evictions-st0.evictions)/max(1, lookups), "1/1k", int(lookups))

	var treads []read
	for _, t := range reqs {
		treads = append(treads, t.r)
	}
	sn := rp.svc.Snapshot()
	if err := kernelPass(sn.CH(), sn.Graph(), distinctPairs(treads, kernelPairs), r.add); err != nil {
		return nil, err
	}
	r.add("ch.topology_s", topoS, "s", 1)
	r.add("ch.shortcuts", float64(topo.Shortcuts()), "count", 1)
	r.add("ch.triangles", float64(topo.Triangles()), "count", 1)
	r.add("ch.customize_ms_p50", median(dur["ch.customize"])/1e3, "ms", len(dur["ch.customize"]))
	r.add("graph.clone_us_p50", median(dur["graph.clone"]), "us", len(dur["graph.clone"]))
	r.add("graph.apply_us_p50", median(dur["graph.apply"]), "us", len(dur["graph.apply"]))
	r.add("route.publish_ms_p50", median(dur["route.publish"])/1e3, "ms", len(dur["route.publish"]))
	r.add("route.publish_self_ms", median(self["route.publish"])/1e3, "ms", len(self["route.publish"]))
	r.add("route.bytes_per_publish", median(rp.publishBytes), "B", len(rp.publishBytes))
	r.add("runtime.gc_per_1k_req", 1000*float64(rt1.cycles-rt0.cycles)/reads, "1/1k", int(reads))
	r.add("runtime.gc_pause_us_p99", 1e6*pauseQuantile(rt0, rt1, 0.99), "us", int(rt1.cycles-rt0.cycles))
	visible := m.visible(w.feed)
	r.add("route_p99_ms", quantile(uLat, 0.99), "ms", len(uLat))
	r.add("traffic_visible_p90_ms", quantile(visible, 0.9), "ms", len(visible))
	r.add("trace.coverage", (replayed+wire)/(handled+wire), "ratio", len(self["client"]))
	uP50 := m.blockMedian(func(i int) bool { return !isTraced(i) })
	tP50 := m.blockMedian(isTraced)
	r.add("trace.overhead_pct", 100*(tP50/uP50-1), "%", len(tLat))
	r.note("traced pass: untraced route p50 %.3f ms (n=%d), traced %.3f ms (n=%d)", uP50, len(uLat), tP50, len(tLat))
	s.checkLag(lagUS, uP50)

	path := filepath.Join(".bench_build", "trace-"+w.name+".jsonl")
	if err := rp.rec.write(path); err != nil {
		return nil, err
	}
	r.note("spans: %d written to %s", len(rp.rec.spans), path)
	return r, nil
}

func distinctPairs(rs []read, n int) []read {
	seen := map[[2]int32]bool{}
	var out []read
	for _, r := range rs {
		k := [2]int32{r.from, r.to}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, read{from: r.from, to: r.to})
		if len(out) == n {
			break
		}
	}
	return out
}
