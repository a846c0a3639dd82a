package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (q in (0,1]); NaN
// for no samples. Failed operations enter as +Inf, so they count as over
// any latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond is the number of samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func itoa(i int) string { return strconv.Itoa(i) }

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// serverStats is the part of GET /v1/stats and GET /v1/metrics the traced
// pass differences across a phase.
type serverStats struct {
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	Admission   struct {
		Granted uint64 `json:"granted"`
		Queued  uint64 `json:"queued"`
		Shed    uint64 `json:"shed"`
	} `json:"admission"`
	evictions float64
}

func scrapeStats(c *conn) (serverStats, error) {
	var st serverStats
	r, err := c.do("GET", "/v1/stats", "stats", nil)
	if err != nil {
		return st, err
	}
	if r.status != 200 {
		return st, fmt.Errorf("GET /v1/stats: status %d", r.status)
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	r, err = c.do("GET", "/v1/metrics", "metrics", nil)
	if err != nil {
		return st, err
	}
	if r.status != 200 {
		return st, fmt.Errorf("GET /v1/metrics: status %d", r.status)
	}
	st.evictions, err = promValue(r.body, "atis_route_cache_evictions_total")
	return st, err
}

// promValue reads an unlabelled sample from Prometheus text exposition.
func promValue(body []byte, name string) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("GET /v1/metrics: no sample %s", name)
}

// runtimeSample is a read of the Go runtime's GC counters.
type runtimeSample struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

const (
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	gcPausesMetric = "/sched/pauses/total/gc:seconds"
)

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: gcCyclesMetric}, {Name: gcPausesMetric}}
	metrics.Read(s)
	rs := runtimeSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		rs.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		rs.pauses = s[1].Value.Float64Histogram()
	}
	return rs
}

// pauseQuantile is the q-quantile of GC pauses between two reads, taken
// as the upper bound of the bucket it falls in; 0 when nothing paused.
func pauseQuantile(a, b runtimeSample, q float64) float64 {
	if a.pauses == nil || b.pauses == nil {
		return 0
	}
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range counts {
		acc += c
		if acc >= want {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi
		}
	}
	return 0
}
