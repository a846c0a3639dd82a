package main

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
)

// oracle checks route answers against an independent Dijkstra over the
// edge costs of every snapshot the benchmark's own writes produced:
// version j holds the free-flow costs with the first j batches applied.
type oracle struct {
	offsets  []int32
	heads    []int32
	versions [][]float64
}

func newOracle(g *graph.Graph) *oracle {
	n := g.NumNodes()
	o := &oracle{offsets: make([]int32, n+1)}
	var costs []float64
	for u := 0; u < n; u++ {
		for _, a := range g.Arcs(graph.NodeID(u)) {
			o.heads = append(o.heads, int32(a.Head))
			costs = append(costs, a.Cost)
		}
		o.offsets[u+1] = int32(len(o.heads))
	}
	o.versions = [][]float64{costs}
	return o
}

// apply records the next snapshot: the latest costs with b applied, every
// parallel arc of each pair set, as graph.ApplyBatch does.
func (o *oracle) apply(b batch) {
	next := append([]float64(nil), o.versions[len(o.versions)-1]...)
	for _, c := range b.changes {
		for i := o.offsets[c.Tail]; i < o.offsets[c.Tail+1]; i++ {
			if o.heads[i] == int32(c.Head) {
				next[i] = c.Cost
			}
		}
	}
	o.versions = append(o.versions, next)
}

func (o *oracle) arc(u, v int32) (int32, bool) {
	for i := o.offsets[u]; i < o.offsets[u+1]; i++ {
		if o.heads[i] == v {
			return i, true
		}
	}
	return 0, false
}

// shortest is a plain binary-heap Dijkstra from s, stopped when t settles.
func (o *oracle) shortest(costs []float64, dist []float64, s, t int32) float64 {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	pq := &distHeap{{s, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.u] {
			continue
		}
		if it.u == t {
			return it.d
		}
		for i := o.offsets[it.u]; i < o.offsets[it.u+1]; i++ {
			v, nd := o.heads[i], it.d+costs[i]
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, distItem{v, nd})
			}
		}
	}
	return math.Inf(1)
}

type distItem struct {
	u int32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// routeBody is the part of httpapi.RouteResponse the check reads.
type routeBody struct {
	Found     bool    `json:"found"`
	Cost      float64 `json:"cost"`
	Nodes     []int32 `json:"nodes"`
	Algorithm string  `json:"algorithm"`
}

var errWrong = errors.New("wrong answer")

// sameCost compares costs summed in different orders.
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checker verifies answers; it memoizes optima per (version, from, to)
// and is used by one goroutine.
type checker struct {
	o    *oracle
	dist []float64
	memo map[[3]int32]float64
}

func (o *oracle) newChecker() *checker {
	return &checker{o: o, dist: make([]float64, len(o.offsets)-1), memo: make(map[[3]int32]float64)}
}

func (c *checker) optimum(v int, s, t int32) float64 {
	k := [3]int32{int32(v), s, t}
	if d, ok := c.memo[k]; ok {
		return d
	}
	d := c.o.shortest(c.o.versions[v], c.dist, s, t)
	c.memo[k] = d
	return d
}

// check verifies one route answer for r that may have been served by any
// snapshot version in [lo, hi]: the nodes must form a path from r.from to
// r.to, and its cost — as reported and as summed over its arcs — must be
// the Dijkstra optimum of that version. It returns the version that
// matched.
func (c *checker) check(r read, body []byte, lo, hi int) (int, error) {
	var rb routeBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return 0, fmt.Errorf("%w: undecodable body: %v", errWrong, err)
	}
	if !rb.Found || len(rb.Nodes) == 0 {
		return 0, fmt.Errorf("%w: %d→%d reported unreachable on a connected grid", errWrong, r.from, r.to)
	}
	if rb.Nodes[0] != r.from || rb.Nodes[len(rb.Nodes)-1] != r.to {
		return 0, fmt.Errorf("%w: path runs %d→%d, asked %d→%d", errWrong, rb.Nodes[0], rb.Nodes[len(rb.Nodes)-1], r.from, r.to)
	}
	arcs := make([]int32, 0, len(rb.Nodes))
	for i := 0; i+1 < len(rb.Nodes); i++ {
		u, v := rb.Nodes[i], rb.Nodes[i+1]
		if u < 0 || int(u) >= len(c.dist) || v < 0 || int(v) >= len(c.dist) {
			return 0, fmt.Errorf("%w: node out of range in step %d", errWrong, i)
		}
		a, ok := c.o.arc(u, v)
		if !ok {
			return 0, fmt.Errorf("%w: no arc %d→%d at step %d", errWrong, u, v, i)
		}
		arcs = append(arcs, a)
	}
	for v := lo; v <= hi; v++ {
		costs := c.o.versions[v]
		var sum float64
		for _, a := range arcs {
			sum += costs[a]
		}
		if sameCost(sum, rb.Cost) && sameCost(rb.Cost, c.optimum(v, r.from, r.to)) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: %d→%d cost %v is not the optimum %v of snapshot version %d..%d",
		errWrong, r.from, r.to, rb.Cost, c.optimum(lo, r.from, r.to), lo, hi)
}

// readCheck is one answer to verify and, after verify, its verdict.
type readCheck struct {
	r      read
	s      *sample
	lo, hi int
	// version is the snapshot version the answer matched.
	version int
	err     error
}

// verifyAll checks every issued read, spreading the work over workers
// goroutines by pair so each optimum is computed once.
func (o *oracle) verifyAll(checks []readCheck, workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := o.newChecker()
			for i := range checks {
				k := &checks[i]
				if int(k.r.from*31+k.r.to)%workers != w {
					continue
				}
				switch {
				case k.s.err != nil:
					k.err = k.s.err
				case k.s.rep.status != 200:
					k.err = fmt.Errorf("status %d: %s", k.s.rep.status, firstLine(k.s.rep.body))
				default:
					k.version, k.err = c.check(k.r, k.s.rep.body, k.lo, k.hi)
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkBatch verifies one traffic batch's response: 200 and every change
// matched an edge.
func checkBatch(b batch, s *sample) error {
	if s.err != nil {
		return s.err
	}
	if s.rep.status != 200 {
		return fmt.Errorf("status %d: %s", s.rep.status, firstLine(s.rep.body))
	}
	var body struct {
		AffectedEdges int `json:"affectedEdges"`
	}
	if err := json.Unmarshal(s.rep.body, &body); err != nil {
		return fmt.Errorf("%w: undecodable batch body: %v", errWrong, err)
	}
	if body.AffectedEdges != len(b.changes) {
		return fmt.Errorf("%w: batch affected %d edges, sent %d", errWrong, body.AffectedEdges, len(b.changes))
	}
	return nil
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' || i == 120 {
			return string(b[:i])
		}
	}
	return string(b)
}
