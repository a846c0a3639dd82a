package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/gridgen"
)

// The road network every workload serves: the paper's synthetic grid
// family with 20%-variance costs, scaled to k=64 (4,096 nodes, 16,128
// arcs). The map seed is atis-server's default, so the graph — and with it
// the CH topology — is the same in every run; --seed varies only the
// request stream.
const (
	gridK    = 64
	gridSeed = 1993

	// cacheCapacity mirrors the route service's LRU bound; the commute
	// catalogue is sized against it.
	cacheCapacity = 4096
	// catalogueSize is the commute workload's set of popular pairs: four
	// times the route cache, so the cache holds only the hot head.
	catalogueSize = 4 * cacheCapacity
	// zipfS is the commute popularity skew (s≈1; math/rand needs s>1).
	zipfS = 1.01

	// feedEdges and feedRate shape the live traffic feed exactly like
	// atis-server -traffic-stream 10 -traffic-batch 16: each batch sets 16
	// random edges to 0.5–3.5× their free-flow cost.
	feedEdges = 16
	feedRate  = 10.0

	// probeBatches is the closing write probe on workloads without a live
	// feed: enough batches that their p90 has ten samples beyond it.
	probeBatches = 100
)

// workload is one traffic mix. Every workload's service readies the
// contraction hierarchy at set-up, as atis-server -ch does, so set-up,
// heap and write visibility are comparable across workloads; only commute
// and live-traffic read through it. Offered rates are fixed numbers, about
// a quarter of each workload's measured capacity on the reference machine
// (a sixth on live-traffic); they are part of the workload's definition,
// not re-derived per run, so two commits are always offered identical
// load.
type workload struct {
	name string
	why  string
	// readConns is the number of connections carrying GET /v1/route; a
	// live feed adds one more. The total never exceeds nproc (2).
	readConns int
	// openRate is the open-loop phase's offered GET /v1/route per second.
	openRate float64
	// feed runs POST /v1/traffic/batch at feedRate beside the reads.
	feed bool
}

var workloads = []workload{
	{
		name:      "commute",
		why:       "Zipf-skewed popular pairs over CH: the HTTP shell, the route cache and ch.QueryCtx carry the cost",
		readConns: 2,
		openRate:  3500,
	},
	{
		name:      "paper-kernels",
		why:       "the paper's kernels on fresh pairs: search kernels do the work, the cache and CH are bypassed",
		readConns: 1,
		openRate:  600,
	},
	{
		name:      "live-traffic",
		why:       "uniform CH reads beside a 10/s repricing feed: clone, apply, customize and publish do the work",
		readConns: 1,
		openRate:  400,
		feed:      true,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// read is one GET /v1/route request. An empty algo leaves the server's
// default (astar-euclidean).
type read struct {
	from, to int32
	algo     string
}

func (r read) target() string {
	t := "/v1/route?from=" + strconv.Itoa(int(r.from)) + "&to=" + strconv.Itoa(int(r.to))
	if r.algo != "" {
		t += "&algo=" + r.algo
	}
	return t
}

// batch is one POST /v1/traffic/batch: absolute costs for directed edges.
type batch struct {
	changes []graph.EdgeCostChange
}

// body renders the batch as the endpoint's JSON. Costs use the shortest
// representation that round-trips, so the server applies exactly the
// float64 values the verifier replays.
func (b batch) body() []byte {
	out := []byte(`{"changes":[`)
	for i, c := range b.changes {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"from":"`...)
		out = strconv.AppendInt(out, int64(c.Tail), 10)
		out = append(out, `","to":"`...)
		out = strconv.AppendInt(out, int64(c.Head), 10)
		out = append(out, `","cost":`...)
		out = strconv.AppendFloat(out, c.Cost, 'g', -1, 64)
		out = append(out, '}')
	}
	return append(out, "]}"...)
}

// stream is everything one run sends, derived from the seed alone.
type stream struct {
	warm    []read          // warm-up, closed loop, unmeasured
	closed  []read          // capacity slices, closed loop (consumed in order)
	open    []read          // open-loop slices
	openDue []time.Duration // due offsets of open, in open-loop time
	feed    []batch         // live feed (live-traffic only)
	feedDue []time.Duration
	probe   []batch // closing write probe (workloads without a feed)
}

// A run's measured time is cut into blocks, each a closed-loop capacity
// slice followed by an open-loop slice. Interleaving them means a
// disturbance of the shared machine lasting a few seconds spoils a few
// blocks of each kind rather than a whole phase, and per-block medians
// set it aside.
const (
	blockClosed = 500 * time.Millisecond
	blockOpen   = 1500 * time.Millisecond
)

// numBlocks is how many blocks --seconds holds.
func numBlocks(seconds int) int {
	return max(1, int(time.Duration(seconds)*time.Second/(blockClosed+blockOpen)))
}

// closedPerSecond sizes the closed-loop request list: each block gets
// closedPerSecond × blockClosed ops, about twice what the fastest workload
// completes in a slice on a 2-vCPU VM. A faster host runs out early and
// measures its rate over a shorter slice.
const closedPerSecond = 40000

// pairGen draws the workload's read requests.
type pairGen interface {
	next(rng *rand.Rand) read
}

// newStream generates the full request stream of workload w for seed.
// base is the free-flow graph, whose edge list the traffic batches draw
// from.
func newStream(w workload, seed int64, seconds int, base *graph.Graph) *stream {
	rng := rand.New(rand.NewSource(seed))
	var gen pairGen
	switch w.name {
	case "commute":
		gen = newCommuteGen(rng)
	case "paper-kernels":
		gen = newKernelGen()
	default:
		gen = uniformGen{algo: "ch"}
	}
	nb := numBlocks(seconds)
	s := &stream{}
	s.warm = draw(gen, rng, 4000)
	s.closed = draw(gen, rng, int(closedPerSecond*blockClosed.Seconds())*nb)
	s.openDue = poisson(rng, w.openRate, blockOpen.Seconds()*float64(nb))
	s.open = draw(gen, rng, len(s.openDue))
	edges := base.Edges()
	if w.feed {
		// The feed runs through every block at a fixed spacing, like
		// atis-server's ticker.
		n := int(feedRate * (blockClosed + blockOpen).Seconds() * float64(nb))
		for i := 0; i < n; i++ {
			s.feedDue = append(s.feedDue, time.Duration(float64(i)*float64(time.Second)/feedRate))
			s.feed = append(s.feed, newBatch(rng, edges))
		}
	} else {
		for i := 0; i < probeBatches; i++ {
			s.probe = append(s.probe, newBatch(rng, edges))
		}
	}
	return s
}

func draw(gen pairGen, rng *rand.Rand, n int) []read {
	out := make([]read, n)
	for i := range out {
		out[i] = gen.next(rng)
	}
	return out
}

// poisson returns the arrival offsets of a Poisson process of the given
// rate over d seconds: independent travellers, so an open loop.
func poisson(rng *rand.Rand, rate, d float64) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

func newBatch(rng *rand.Rand, edges []graph.Edge) batch {
	b := batch{changes: make([]graph.EdgeCostChange, feedEdges)}
	for i := range b.changes {
		e := edges[rng.Intn(len(edges))]
		b.changes[i] = graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: e.Cost * (0.5 + 3*rng.Float64())}
	}
	return b
}

// gridDist is the Manhattan distance in grid steps between two nodes.
func gridDist(a, b int32) int {
	ar, ac := int(a)/gridK, int(a)%gridK
	br, bc := int(b)/gridK, int(b)%gridK
	return abs(ar-br) + abs(ac-bc)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// commuteGen draws Zipf-popular pairs from a fixed catalogue, stratified
// into three distance buckets (after Wu et al.'s query sets): short
// (2–16 grid steps), medium (17–48) and long (49–126), a third each.
// Popularity rank is shuffled independently of bucket.
type commuteGen struct {
	catalogue []read
	zipf      *rand.Zipf
}

var commuteBuckets = [3][2]int{{2, 16}, {17, 48}, {49, 2 * (gridK - 1)}}

func newCommuteGen(rng *rand.Rand) *commuteGen {
	seen := make(map[[2]int32]bool, catalogueSize)
	cat := make([]read, 0, catalogueSize)
	for b, lim := range commuteBuckets {
		want := catalogueSize / 3
		if b == len(commuteBuckets)-1 {
			want = catalogueSize - len(cat)
		}
		for got := 0; got < want; {
			from, to := int32(rng.Intn(gridK*gridK)), int32(rng.Intn(gridK*gridK))
			d := gridDist(from, to)
			if d < lim[0] || d > lim[1] || seen[[2]int32{from, to}] {
				continue
			}
			seen[[2]int32{from, to}] = true
			cat = append(cat, read{from: from, to: to, algo: "ch"})
			got++
		}
	}
	rng.Shuffle(len(cat), func(i, j int) { cat[i], cat[j] = cat[j], cat[i] })
	return &commuteGen{catalogue: cat, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(cat)-1))}
}

func (g *commuteGen) next(*rand.Rand) read { return g.catalogue[g.zipf.Uint64()] }

// kernelGen draws the paper's query shapes — horizontal, semi-diagonal
// and diagonal (Figure 4) at random spans, offsets, directions and
// orientations — plus uniformly random pairs, a quarter each, and assigns
// the paper's algorithms in fixed proportions: half astar-euclidean (the
// server default, sent without algo), a quarter dijkstra, a quarter
// iterative. No (from, to, algo) repeats within a run, so the route cache
// never hits.
type kernelGen struct {
	seen map[read]bool
}

func newKernelGen() *kernelGen { return &kernelGen{seen: make(map[read]bool)} }

func (g *kernelGen) next(rng *rand.Rand) read {
	for {
		r := kernelPair(rng)
		switch u := rng.Intn(4); {
		case u == 2:
			r.algo = "dijkstra"
		case u == 3:
			r.algo = "iterative"
		}
		if r.from != r.to && !g.seen[r] {
			g.seen[r] = true
			return r
		}
	}
}

func kernelPair(rng *rand.Rand) read {
	kind := gridgen.PairKind(rng.Intn(4))
	if kind == gridgen.Random {
		return read{from: int32(rng.Intn(gridK * gridK)), to: int32(rng.Intn(gridK * gridK))}
	}
	m := 8 + rng.Intn(gridK-8) // span in grid steps: 8..63
	dr, dc := 0, m             // horizontal
	switch kind {
	case gridgen.SemiDiagonal:
		dr, dc = m, m/2
	case gridgen.Diagonal:
		dr, dc = m, m
	}
	r0, c0 := rng.Intn(gridK-dr), rng.Intn(gridK-dc)
	r1, c1 := r0+dr, c0+dc
	if rng.Intn(2) == 1 { // mirror left-right
		c0, c1 = gridK-1-c0, gridK-1-c1
	}
	if rng.Intn(2) == 1 { // transpose: vertical shapes
		r0, c0, r1, c1 = c0, r0, c1, r1
	}
	from, to := int32(r0*gridK+c0), int32(r1*gridK+c1)
	if rng.Intn(2) == 1 {
		from, to = to, from
	}
	return read{from: from, to: to}
}

// uniformGen draws uniformly random distinct pairs.
type uniformGen struct{ algo string }

func (g uniformGen) next(rng *rand.Rand) read {
	for {
		from, to := int32(rng.Intn(gridK*gridK)), int32(rng.Intn(gridK*gridK))
		if from != to {
			return read{from: from, to: to, algo: g.algo}
		}
	}
}

// digest hashes every request of the stream, with its due time, in send
// order. Equal digests on two commits prove they were sent identical
// input.
func (s *stream) digest() string {
	h := sha256.New()
	reads := func(tag string, rs []read, due []time.Duration) {
		fmt.Fprintf(h, "%s %d\n", tag, len(rs))
		for i, r := range rs {
			if due != nil {
				fmt.Fprintf(h, "%d ", due[i])
			}
			fmt.Fprintf(h, "GET %s\n", r.target())
		}
	}
	batches := func(tag string, bs []batch, due []time.Duration) {
		fmt.Fprintf(h, "%s %d\n", tag, len(bs))
		for i, b := range bs {
			if due != nil {
				fmt.Fprintf(h, "%d ", due[i])
			}
			fmt.Fprintf(h, "POST /v1/traffic/batch %s\n", b.body())
		}
	}
	reads("warm", s.warm, nil)
	reads("closed", s.closed, nil)
	reads("open", s.open, s.openDue)
	batches("feed", s.feed, s.feedDue)
	batches("probe", s.probe, nil)
	return hex.EncodeToString(h.Sum(nil))[:32]
}
