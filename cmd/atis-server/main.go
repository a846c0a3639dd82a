// Command atis-server exposes the three ATIS facilities over HTTP — route
// computation, route evaluation and route display (paper Section 1.1) —
// plus dynamic traffic updates and the observability surface. See
// internal/httpapi for the endpoints.
//
//	atis-server -addr :8080 -map mpls
//	curl 'localhost:8080/v1/route?from=G&to=D&algo=astar-euclidean'
//	curl -X POST localhost:8080/v1/traffic -d '{"x":16,"y":16,"radius":4,"factor":2}'
//	curl localhost:8080/v1/snapshot      # which published world answers right now
//	curl localhost:8080/v1/metrics       # Prometheus text format
//	atis-server -pprof                   # also mounts /debug/pprof/
//	atis-server -max-inflight 8 -max-queue 32 -default-budget 2s -degrade
//	atis-server -ch -traffic-stream 20 -traffic-batch 16   # live-feed simulation
//	atis-server -trace-sample 0.1 -trace-slow-ms 250       # request tracing
//
// -trace-sample and -trace-slow-ms enable per-request span tracing (see
// internal/tracing): a sampled fraction of requests — plus every request
// over the slow threshold — is captured with a span tree covering
// admission, cache, and kernel phases, retrievable via GET
// /v1/debug/traces and linked from /metrics OpenMetrics exemplars.
//
// -traffic-stream drives the server with a synthetic traffic feed:
// batches of random edge-cost updates applied through the same
// ApplyTrafficBatch path as POST /v1/traffic/batch, each triggering a
// synchronous CH metric customization when -ch is on. It exists to
// demonstrate (and load-test) millisecond metric updates without a
// structural rebuild.
//
// The admission flags size the request-lifecycle layer: -max-inflight
// caps concurrent search work (weighted by algorithm class), -max-queue
// bounds the wait queue before requests shed with 503 + Retry-After,
// -default-budget/-max-budget set the server-side deadline policy, and
// -degrade answers shed route requests from the cache or CH index.
//
// The server installs the search-kernel telemetry recorder, logs
// structured lines via log/slog, and shuts down gracefully on SIGINT or
// SIGTERM, draining in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/httpapi"
	"repro/internal/mpls"
	"repro/internal/route"
	"repro/internal/search"
	"repro/internal/tracing"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		mapKind     = flag.String("map", "mpls", "map to serve: mpls | grid")
		k           = flag.Int("k", 30, "grid side for -map grid")
		seed        = flag.Int64("seed", 1993, "map seed")
		enableCH    = flag.Bool("ch", false, "prebuild the contraction hierarchy so algo=ch is served from the index immediately")
		enablePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		jsonLogs    = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		gracePeriod = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")

		maxInFlight = flag.Int("max-inflight", 0,
			"admission-gate capacity in weight units (0 = 2×GOMAXPROCS)")
		maxQueue = flag.Int("max-queue", 0,
			"admission wait-queue bound before requests shed with 503 (0 = 8×capacity, min 64)")
		defaultBudget = flag.Duration("default-budget", 0,
			"server-side deadline for requests without ?budget_ms= (0 = 10s)")
		maxBudget = flag.Duration("max-budget", 0,
			"hard cap on client-requested ?budget_ms= deadlines (0 = 60s)")
		degrade = flag.Bool("degrade", false,
			"answer shed /v1/route requests from the route cache or CH index instead of 503")

		trafficStream = flag.Float64("traffic-stream", 0,
			"simulate a live traffic feed: batches per second of random edge-cost updates (0 = off)")
		trafficBatch = flag.Int("traffic-batch", 16,
			"edges mutated per simulated traffic batch (with -traffic-stream)")

		traceSample = flag.Float64("trace-sample", 0,
			"head-sampling rate for request traces, 0..1 (0 = tracing off unless -trace-slow-ms is set)")
		traceSlowMS = flag.Int("trace-slow-ms", 0,
			"capture every request slower than this many milliseconds regardless of sampling (0 = off)")
	)
	flag.Parse()

	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *jsonLogs {
		h = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(h)
	slog.SetDefault(logger)

	var g *graph.Graph
	var err error
	switch *mapKind {
	case "mpls":
		g, err = mpls.Generate(mpls.Config{Seed: *seed})
	case "grid":
		g, err = gridgen.Generate(gridgen.Config{K: *k, Model: gridgen.Variance, Seed: *seed})
	default:
		logger.Error("unknown map", "map", *mapKind)
		os.Exit(1)
	}
	if err != nil {
		logger.Error("map generation failed", "err", err)
		os.Exit(1)
	}

	svc := route.NewService(g)
	// Route the search kernels' per-algorithm counters (expansions, heap
	// ops, pool hits) into the same registry /metrics scrapes.
	search.EnableTelemetry(svc.Registry())
	if *enableCH {
		start := time.Now()
		if err := svc.EnableCH(); err != nil {
			logger.Error("contraction-hierarchy preprocessing failed", "err", err)
			os.Exit(1)
		}
		st := svc.CHStats()
		logger.Info("contraction hierarchy ready",
			"nodes", g.NumNodes(), "shortcuts", st.Shortcuts,
			"elapsed", time.Since(start))
	}

	serverOpts := []httpapi.Option{
		httpapi.WithLogger(logger),
		httpapi.WithAdmission(admission.Config{
			MaxInFlight:   *maxInFlight,
			MaxQueue:      *maxQueue,
			DefaultBudget: *defaultBudget,
			MaxBudget:     *maxBudget,
			Degrade:       *degrade,
		}),
	}
	if *traceSample > 0 || *traceSlowMS > 0 {
		serverOpts = append(serverOpts, httpapi.WithTracing(tracing.Config{
			SampleRate:    *traceSample,
			SlowThreshold: time.Duration(*traceSlowMS) * time.Millisecond,
		}))
		logger.Info("tracing enabled",
			"sample_rate", *traceSample, "slow_threshold_ms", *traceSlowMS,
			"endpoint", "/v1/debug/traces")
	}
	api := httpapi.NewServer(svc, serverOpts...)
	gateCfg := api.Admission().Config()
	logger.Info("admission gate ready",
		"capacity", gateCfg.MaxInFlight, "max_queue", gateCfg.MaxQueue,
		"default_budget", gateCfg.DefaultBudget, "max_budget", gateCfg.MaxBudget,
		"degraded_serving", gateCfg.Degrade)
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	if *enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *trafficStream > 0 {
		// The streamer only mutates; handing it the Mutator view keeps the
		// read/write split visible at the call site.
		go streamTraffic(ctx, logger, svc, svc.Graph().Edges(), *trafficStream, *trafficBatch, *seed)
		logger.Info("traffic stream enabled",
			"batches_per_sec", *trafficStream, "batch_size", *trafficBatch)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("serving", "map", *mapKind, "nodes", g.NumNodes(), "edges", g.NumEdges(),
		"addr", *addr, "snapshot", svc.Snapshot().Generation())

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("server failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		logger.Info("shutting down", "grace", *gracePeriod)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *gracePeriod)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown incomplete", "err", err)
			os.Exit(1)
		}
		logger.Info("drained, bye")
	}
}

// streamTraffic simulates a live traffic feed: rate batches per second,
// each setting size random edges to an absolute cost drawn around the
// free-flow baseline (0.5×–3.5× base, so costs never drift or collapse to
// zero over a long run). Every batch is one Mutator.ApplyTrafficBatch —
// one snapshot publication: cost-generation bump, route-cache invalidation,
// and a synchronous CH metric customization — which is exactly the load
// the customization path is built for; watch atis_ch_customize_seconds
// and atis_snapshot_generation under it.
//
// base is the free-flow edge set, captured before any mutation.
func streamTraffic(ctx context.Context, logger *slog.Logger, m route.Mutator, base []graph.Edge, rate float64, size int, seed int64) {
	if len(base) == 0 || size <= 0 {
		return
	}
	if size > len(base) {
		size = len(base)
	}
	rng := rand.New(rand.NewSource(seed))
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	changes := make([]graph.EdgeCostChange, size)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for i := range changes {
			e := base[rng.Intn(len(base))]
			changes[i] = graph.EdgeCostChange{
				Tail: e.Tail, Head: e.Head,
				Cost: e.Cost * (0.5 + 3*rng.Float64()),
			}
		}
		if _, err := m.ApplyTrafficBatch(changes); err != nil {
			logger.Error("traffic stream batch failed", "err", err)
			return
		}
	}
}
