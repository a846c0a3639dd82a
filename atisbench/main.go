// Command atisbench is the repository's benchmark: it starts the real
// ATIS serving stack in process, serves it on loopback, drives one seeded
// workload over at most two connections, checks every answer against an
// independent Dijkstra, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},…}}
//
// With --trace 0 the metrics are the end-to-end ones a traveller would
// see; with --trace 1 a separate traced pass reports per-layer numbers.
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash atisbench/run.sh --workload commute --seed 1 --seconds 16 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: commute | paper-kernels | live-traffic")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", 16, "measured seconds: a quarter closed-loop capacity, the rest open loop")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "atisbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 4 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "atisbench: need --seconds >= 4 and --trace 0|1")
		os.Exit(2)
	}
	var (
		out *result
		err error
	)
	if *trace == 1 {
		out, err = runTraced(w, *seed, *seconds)
	} else {
		out, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atisbench:", err)
		os.Exit(1)
	}
	out.print(os.Stdout)
}

// result is one run's outcome.
type result struct {
	workload  string
	why       string
	digest    string
	correct   bool
	attempted int
	failed    int
	failures  []string
	notes     []string
	metrics   []metric
	// infos are printed in the table but left out of the JSON: figures
	// whose run-to-run spread is too wide to gate a change on.
	infos []metric
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, samples: samples})
}

func (r *result) info(name string, value float64, unit string, samples int) {
	r.infos = append(r.infos, metric{name: name, value: value, unit: unit, samples: samples})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable table and then, as the last line, the
// JSON result.
func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s  stream digest %s\n  why: %s\n", r.workload, r.digest, r.why)
	for _, n := range r.notes {
		fmt.Fprintln(f, "  "+n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(f, "  %-36s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, m := range r.infos {
		fmt.Fprintf(f, "  %-36s %14.4f %-8s n=%d (not gated)\n", m.name, m.value, m.unit, m.samples)
	}
	for _, e := range r.failures {
		fmt.Fprintln(f, "  FAILED:", e)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A percentile that lands on a failed request is infinitely
			// slow; JSON has no infinity, so report an absurd finite value.
			v = 1e12
		}
		ms[m.name] = jm{Value: v, Unit: m.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(f, string(b))
}

// session is the state shared by both passes of one run.
type session struct {
	w        workload
	str      *stream
	orc      *oracle
	lg       *loadgen
	conns    []*conn // read connections
	feedConn *conn
	// gen0 is the snapshot generation before the run's first write.
	gen0   uint64
	blocks int
	res    *result
}

// begin generates the stream for the running stack, opens the
// workload's connections and warms the server up.
func begin(w workload, st *stack, lg *loadgen, seed int64, seconds int) (*session, error) {
	base := st.svc.Graph()
	s := &session{
		w:      w,
		str:    newStream(w, seed, seconds, base),
		orc:    newOracle(base),
		lg:     lg,
		res:    &result{workload: w.name, why: w.why, correct: true},
		blocks: numBlocks(seconds),
	}
	s.res.digest = s.str.digest()
	for i := 0; i < w.readConns; i++ {
		c, err := dial(st.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	if w.feed {
		c, err := dial(st.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.feedConn = c
	}
	warm := readOps("w", s.str.warm)
	var next atomic.Int64
	s.lg.closed(s.conns, warm, make([]sample, len(warm)), &next, time.Second)
	s.gen0 = st.svc.Snapshot().Generation()
	return s, nil
}

func (s *session) close() {
	for _, c := range s.conns {
		c.close()
	}
	if s.feedConn != nil {
		s.feedConn.close()
	}
}

// readPhase pairs a phase's requests with their samples.
type readPhase struct {
	reads []read
	res   []sample
}

// verifyWrites checks every traffic batch's response and counts attempts
// and failures. On a live feed the successful batches define the snapshot
// versions, in order — each must have begun on the generation its
// predecessors left behind — and it returns their send times.
func (s *session) verifyWrites(writes []batch, wres []sample) (applied []time.Duration) {
	for i := range writes {
		s.res.attempted++
		err := checkBatch(writes[i], &wres[i])
		if err == nil && s.w.feed && wres[i].rep.snapshot != s.gen0+uint64(len(applied)) {
			err = fmt.Errorf("%w: batch %d began on snapshot %d, want %d", errWrong, i, wres[i].rep.snapshot, s.gen0+uint64(len(applied)))
		}
		if err != nil {
			wres[i].bad = true
			s.fail(err)
			continue
		}
		if s.w.feed {
			s.orc.apply(writes[i])
			applied = append(applied, wres[i].sent)
		}
	}
	return applied
}

// verifyReads checks every issued read of the phases against the oracle,
// counts attempts and failures, and returns the checks with the snapshot
// version each answer matched. applied are the send times of the live
// feed's successful batches.
func (s *session) verifyReads(phases []readPhase, applied []time.Duration) []readCheck {
	var checks []readCheck
	for _, ph := range phases {
		for i := range ph.res {
			sm := &ph.res[i]
			if !sm.issued {
				continue
			}
			k := readCheck{r: ph.reads[i], s: sm}
			if s.w.feed && sm.err == nil {
				// Served by the snapshot the request began on, or by one a
				// write published while it ran.
				k.lo = clamp(int(sm.rep.snapshot)-int(s.gen0), 0, len(applied))
				k.hi = sort.Search(len(applied), func(j int) bool { return applied[j] >= sm.done })
				k.hi = max(k.lo, k.hi)
			}
			checks = append(checks, k)
		}
	}
	s.orc.verifyAll(checks, runtime.GOMAXPROCS(0))
	for _, k := range checks {
		s.res.attempted++
		if k.err != nil {
			k.s.bad = true
			s.fail(k.err)
		}
	}
	return checks
}

func (s *session) fail(err error) {
	s.res.failed++
	if errors.Is(err, errWrong) {
		s.res.correct = false
	}
	if len(s.res.failures) < 10 {
		s.res.failures = append(s.res.failures, err.Error())
	}
}

func clamp(x, lo, hi int) int { return max(lo, min(x, hi)) }

// latencies returns each sample's due-to-done latency in ms; failed ones
// are +Inf.
func latencies(res []sample) []float64 {
	out := make([]float64, 0, len(res))
	for _, sm := range res {
		if !sm.issued {
			continue
		}
		if sm.ok() {
			out = append(out, ms(sm.latency()))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

func lags(res []sample) []float64 {
	out := make([]float64, 0, len(res))
	for _, sm := range res {
		if sm.issued && sm.waited {
			out = append(out, us(sm.lag()))
		}
	}
	return out
}

// maxLagShare is the largest generator lag p50, as a share of the route
// p50, at which a run counts as steady. Waking a parked thread on this
// kind of VM costs tens of microseconds, so the lag never reaches zero;
// it must stay well short of dominating the latency it is part of.
const maxLagShare = 0.25

// checkLag marks the run unsteady when the generator's own lateness is not
// small next to the route median it is measuring.
func (s *session) checkLag(lagUS []float64, routeP50MS float64) {
	p50 := median(lagUS)
	s.res.note("loadgen lag p50 %.1f us, p99 %.1f us (n=%d), %.0f%% of route p50",
		p50, quantile(lagUS, 0.99), len(lagUS), 100*p50/1e3/routeP50MS)
	if p50/1e3 > maxLagShare*routeP50MS {
		s.res.note("UNSTEADY: generator lag p50 %.1f us exceeds %.0f%% of route p50 %.3f ms", p50, 100*maxLagShare, routeP50MS)
		fmt.Fprintf(os.Stderr, "atisbench: unsteady run: generator lag p50 %.1f us vs route p50 %.3f ms\n", p50, routeP50MS)
	}
}

// setupReps is how many set-ups a run times for the median of setup_s.
const setupReps = 3

// setups runs the set-up n times and returns the durations; the last
// stack stays up.
func setups(n int) (*stack, []float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		st, d, err := startStack(nil)
		if err != nil {
			return nil, nil, err
		}
		ds = append(ds, d.Seconds())
		if i == n-1 {
			return st, ds, nil
		}
		if err := st.stop(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("no set-up run")
}

// runEndToEnd is the untraced pass: set-up, then blocks of closed-loop
// capacity and open loop at the workload's offered rate, then — on
// workloads without a live feed — a closing write probe.
func runEndToEnd(w workload, seed int64, seconds int) (*result, error) {
	st, setupS, err := setups(setupReps)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	runtime.GC()
	runtime.GC()
	var mstats runtime.MemStats
	runtime.ReadMemStats(&mstats)
	heapMB := float64(mstats.HeapAlloc) / (1 << 20)

	s, err := begin(w, st, &loadgen{epoch: time.Now()}, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer s.close()
	m, err := s.measure(func(i, _ int) string { return "o" + itoa(i) }, nil)
	if err != nil {
		return nil, err
	}

	r := s.res
	capacity, completed := m.capacity()
	route := latencies(m.open)
	visible := m.visible(w.feed)
	r.add("setup_s", median(setupS), "s", len(setupS))
	r.add("heap_mb", heapMB, "MB", 1)
	p50 := m.blockMedian(func(int) bool { return true })
	r.add("route_p50_ms", p50, "ms", len(route))
	r.add("route_capacity_rps", median(capacity), "1/s", completed)
	r.add("traffic_visible_p50_ms", median(visible), "ms", len(visible))
	r.info("route_p99_ms", quantile(route, 0.99), "ms", len(route))
	r.info("traffic_visible_p90_ms", quantile(visible, 0.9), "ms", len(visible))
	r.info("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
	r.note("offered %.0f GET/s over %d read conn(s) in %d blocks of %v closed loop + %v open loop; %s",
		w.openRate, w.readConns, s.blocks, blockClosed, blockOpen, writeNote(w, len(m.wres)))
	if n := beyond(len(route), 0.99); n < 10 {
		r.note("WARNING: route_p99_ms has only %d samples beyond it", n)
	}
	if n := beyond(len(visible), 0.9); n < 10 {
		r.note("WARNING: traffic_visible_p90_ms has only %d samples beyond it", n)
	}
	s.checkLag(lags(m.open), p50)

	// The CH-versus-Dijkstra ratio and the kernels' exact work counts are
	// printed in every run, after everything above is measured.
	sn := st.svc.Snapshot()
	if err := kernelPass(sn.CH(), sn.Graph(), distinctPairs(s.str.open, e2eKernelPairs), r.info); err != nil {
		return nil, err
	}
	return r, nil
}

// e2eKernelPairs is the size of the untraced pass's kernel comparison.
const e2eKernelPairs = 200

func writeNote(w workload, n int) string {
	if w.feed {
		return fmt.Sprintf("live feed %d batches of %d edges at %.0f/s on its own conn", n, feedEdges, feedRate)
	}
	return fmt.Sprintf("closing write probe %d batches of %d edges, back to back", n, feedEdges)
}
