# Tiered verification for the ATIS reproduction.
#
#   make test   — tier 1: build + unit tests (the seed gate)
#   make lint   — atislint: seven project-specific analyzers enforcing
#                 the engine's concurrency and hot-path invariants
#                 (lockscope, poolpair, recorderguard, ctxcheck, spanend,
#                 hotpath, immutsnapshot); hotpath and
#                 immutsnapshot are interprocedural over the whole-program
#                 call graph. `-format json|sarif` for machine output.
#   make check  — tier 2: vet + lint + full suite under the race
#                 detector, exercising the concurrent query engine
#                 (pooled workspaces, route cache, batch fan-out)
#   make fuzz-short — 30-second bursts of every fuzz target (graphio
#                 reader, quel parser, pqueue heap invariant)
#   make bench  — regenerate the concurrent-engine benchmarks behind
#                 BENCH_PR1.json
#   make bench-telemetry — search kernel with telemetry off vs on; the
#                 delta is the Recorder hook's cost (target < 2%), see
#                 BENCH_PR2.json
#   make bench-ch — contraction-hierarchy suite: preprocessing cost,
#                 cached-index query vs dijkstra/astar/alt, and the
#                 mutate-then-rebuild cycle, see BENCH_PR4.json
#   make bench-admission — request-lifecycle suite: ctx-polling overhead
#                 per kernel (base vs ctx in one run, target < 2%) and
#                 the admission gate's grant/shed fast paths, see
#                 BENCH_PR5.json
#   make bench-customize — CCH metric-customization suite: re-pricing a
#                 cached topology vs full structural preprocessing at
#                 the same k, plus the sustained traffic-stream cycle,
#                 see BENCH_PR6.json
#   make bench-trace — span-tracing suite: instrumented kernels with
#                 tracing disabled vs fully sampled (target: 0 extra
#                 allocs and < 1% when disabled), see BENCH_PR7.json
#   make bench-lint — time the seven-analyzer atislint run over the
#                 module (type-check excluded); keeps the interprocedural
#                 hotpath/immutsnapshot passes honest as the graph grows
#   make bench-snapshot — reader latency under a sustained mutation
#                 stream: the lock-free snapshot read path vs the old
#                 RWMutex discipline (target: reader p99 within 10% of
#                 idle for the snapshot path), see BENCH_PR10.json

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test vet lint race check fuzz-short bench bench-paper bench-telemetry bench-ch bench-admission bench-customize bench-trace bench-lint bench-snapshot

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/atislint .

race:
	$(GO) test -race ./...

check: vet lint race

fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/graphio
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/quel
	$(GO) test -run '^$$' -fuzz FuzzIndexed -fuzztime $(FUZZTIME) ./internal/pqueue

bench:
	$(GO) test -run xxx -bench 'RepeatedQueries|SearchParallel|RouteServiceParallel|BatchCompute|ALTPreprocess' -benchmem .

bench-paper:
	$(GO) test -run xxx -bench 'Table|Figure|Ablation' -benchmem .

bench-telemetry:
	$(GO) test -run xxx -bench 'TelemetryOverhead|PrometheusExport' -benchmem -benchtime 200x -count 3 .

# Preprocessing and rebuild iterate multi-second builds, so they get a
# small fixed iteration count; queries are microseconds and get 100x.
bench-ch:
	$(GO) test -run xxx -bench 'CHPreprocess|CHRebuildAfterMutation' -benchmem -benchtime 3x -count 3 -timeout 60m .
	$(GO) test -run xxx -bench 'CHQuery|CHServiceQuery' -benchmem -benchtime 100x -count 3 .

bench-admission:
	$(GO) test -run xxx -bench 'CtxOverhead' -benchmem -benchtime 100x -count 3 .
	$(GO) test -run xxx -bench 'AdmissionAcquire|AdmissionShed' -benchmem -count 3 .

# The structural pass iterates multi-second contractions (3x); metric
# customization and the stream cycle are milliseconds (50x).
bench-customize:
	$(GO) test -run xxx -bench 'CHPreprocess' -benchmem -benchtime 3x -count 3 -timeout 60m .
	$(GO) test -run xxx -bench 'CHCustomize|CHTrafficStream' -benchmem -benchtime 50x -count 3 -timeout 60m .

bench-trace:
	$(GO) test -run xxx -bench 'TraceOverhead|TraceRingCapture' -benchmem -benchtime 200x -count 3 .

bench-lint:
	$(GO) test -run xxx -bench 'LintModule' -benchmem -count 3 ./internal/lint

bench-snapshot:
	$(GO) test -run xxx -bench 'SnapshotReadUnderMutation|RWMutexReadUnderMutation' -benchtime 5000x -count 3 -timeout 30m .
