package ch

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/pqueue"
)

const tol = 1e-9

// oracleDijkstra is a plain textbook Dijkstra used as the ground truth for
// the tests here. internal/search cannot be imported (its differential
// test imports this package), so the oracle is self-contained.
func oracleDijkstra(g *graph.Graph, s, d graph.NodeID) (float64, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	h := pqueue.NewIndexed(n)
	h.Push(int(s), 0)
	for h.Len() > 0 {
		ui, du, _ := h.PopMin()
		u := graph.NodeID(ui)
		if u == d {
			return du, true
		}
		g.Neighbors(u, func(a graph.Arc) {
			if nd := du + a.Cost; nd < dist[a.Head] {
				dist[a.Head] = nd
				h.PushOrUpdate(int(a.Head), nd)
			}
		})
	}
	return 0, false
}

// checkUnpacked validates a query result against g: endpoints, original-arc
// existence, and cost consistency between the path sum and reported cost.
func checkUnpacked(t *testing.T, g *graph.Graph, s, d graph.NodeID, res Result) {
	t.Helper()
	nodes := res.Path.Nodes
	if len(nodes) == 0 || nodes[0] != s || nodes[len(nodes)-1] != d {
		t.Fatalf("path endpoints %v do not span %d→%d", nodes, s, d)
	}
	sum := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		c, ok := g.ArcCost(nodes[i], nodes[i+1])
		if !ok {
			t.Fatalf("unpacked path uses nonexistent arc %d→%d", nodes[i], nodes[i+1])
		}
		sum += c
	}
	if math.Abs(sum-res.Cost) > tol*(1+math.Abs(res.Cost)) {
		t.Fatalf("unpacked path cost %v does not match reported %v", sum, res.Cost)
	}
}

// builderWithNodes returns a Builder pre-populated with n nodes laid out
// on a line (coordinates are irrelevant here; CH never consults geometry).
func builderWithNodes(n int) *graph.Builder {
	b := graph.NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode(float64(i), 0)
	}
	return b
}

// lineGraph builds a directed path 0→1→…→n-1 with the given per-hop costs
// plus an expensive direct arc 0→n-1, so contracting the interior must
// chain shortcuts that unpack back to every intermediate node.
func lineGraph(t *testing.T, costs []float64, directCost float64) *graph.Graph {
	t.Helper()
	n := len(costs) + 1
	b := builderWithNodes(n)
	for i, c := range costs {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), c)
	}
	b.AddEdge(0, graph.NodeID(n-1), directCost)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLineGraphShortcutsUnpack(t *testing.T) {
	costs := []float64{1, 2, 3, 4, 5}
	g := lineGraph(t, costs, 100)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Query(0, graph.NodeID(len(costs)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("path not found on a connected line")
	}
	if want := 15.0; math.Abs(res.Cost-want) > tol {
		t.Fatalf("cost %v, want %v", res.Cost, want)
	}
	if want := len(costs) + 1; len(res.Path.Nodes) != want {
		t.Fatalf("unpacked path %v, want all %d line nodes", res.Path.Nodes, want)
	}
	checkUnpacked(t, g, 0, graph.NodeID(len(costs)), res)
}

func TestDiamondNeedsNoShortcut(t *testing.T) {
	// Diamond: 0→1→3 (cost 2) and 0→2→3 (cost 2). Structural contraction
	// has no witness searches, but the edge-difference ordering contracts
	// the source and sink (no in/out pairs) before the interior nodes, by
	// which time both neighbours of 1 and 2 are already below them — so no
	// pair survives and the skeleton stays at the original four arcs.
	b := builderWithNodes(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shortcuts() != 0 {
		t.Fatalf("diamond needed %d shortcuts, want 0 (degree-ordered contraction needs none)", ix.Shortcuts())
	}
	res, err := ix.Query(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || math.Abs(res.Cost-2) > tol {
		t.Fatalf("0→3: found=%v cost=%v, want found at cost 2", res.Found, res.Cost)
	}
	checkUnpacked(t, g, 0, 3, res)
}

func TestAgreesWithDijkstraOnRandomGrids(t *testing.T) {
	cases := []struct {
		k     int
		model gridgen.CostModel
		seed  int64
	}{
		{5, gridgen.Uniform, 11},
		{9, gridgen.Variance, 12},
		{13, gridgen.Variance, 13},
	}
	pairs := 40
	if testing.Short() {
		pairs = 10
	}
	for _, tc := range cases {
		g, err := gridgen.Generate(gridgen.Config{K: tc.k, Model: tc.model, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed))
		n := g.NumNodes()
		for i := 0; i < pairs; i++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			res, err := ix.Query(s, d)
			if err != nil {
				t.Fatal(err)
			}
			want, found := oracleDijkstra(g, s, d)
			if res.Found != found {
				t.Fatalf("k=%d %d→%d: ch found=%v, dijkstra found=%v", tc.k, s, d, res.Found, found)
			}
			if !found {
				continue
			}
			if math.Abs(res.Cost-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("k=%d %d→%d: ch cost %v, dijkstra %v", tc.k, s, d, res.Cost, want)
			}
			checkUnpacked(t, g, s, d, res)
		}
	}
}

func TestSameSourceAndDestination(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 4, Model: gridgen.Uniform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Query(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 0 || len(res.Path.Nodes) != 1 || res.Path.Nodes[0] != 5 {
		t.Fatalf("5→5: got found=%v cost=%v path=%v", res.Found, res.Cost, res.Path.Nodes)
	}
}

func TestUnreachableAndOutOfRange(t *testing.T) {
	// Two disconnected arcs: 0→1 and 2→3.
	b := builderWithNodes(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Query(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("0→3 across components reported found, cost %v", res.Cost)
	}
	if _, err := ix.Query(0, 99); err == nil {
		t.Fatal("out-of-range destination did not error")
	}
	if _, err := ix.Query(-1, 0); err == nil {
		t.Fatal("negative source did not error")
	}
}

// TestRepricedCloneMatchesFreshBuild: new costs arrive as a re-priced
// clone. An index re-customized from the old topology for the clone must
// answer exactly as one built from scratch for it, while the old index
// keeps answering for the original graph.
func TestRepricedCloneMatchesFreshBuild(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 5, Model: gridgen.Variance, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := g.Clone()
	var changes []graph.EdgeCostChange
	for _, e := range g.Edges()[:8] {
		changes = append(changes, graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: 4, Scale: true})
	}
	if _, err := next.ApplyBatch(changes); err != nil {
		t.Fatal(err)
	}
	customized, err := ix.Topology().NewIndex(next)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := graph.NodeID(g.NumNodes())
	for s := graph.NodeID(0); s < n; s++ {
		for d := graph.NodeID(0); d < n; d += 3 {
			cres, err := customized.Query(s, d)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := fresh.Query(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if cres.Found != fres.Found || math.Abs(cres.Cost-fres.Cost) > tol*(1+math.Abs(fres.Cost)) {
				t.Fatalf("%d→%d: customized (%v, %v), fresh build (%v, %v)", s, d, cres.Found, cres.Cost, fres.Found, fres.Cost)
			}
			if want, _ := oracleDijkstra(next, s, d); math.Abs(cres.Cost-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%d→%d: customized %v, dijkstra on the clone %v", s, d, cres.Cost, want)
			}
			old, err := ix.Query(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := oracleDijkstra(g, s, d); math.Abs(old.Cost-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%d→%d: old index %v, dijkstra on the original %v", s, d, old.Cost, want)
			}
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 9, Model: gridgen.Variance, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				s := graph.NodeID(rng.Intn(n))
				d := graph.NodeID(rng.Intn(n))
				res, err := ix.Query(s, d)
				if err != nil {
					t.Errorf("query(%d,%d): %v", s, d, err)
					return
				}
				if !res.Found {
					t.Errorf("%d→%d unreachable on a connected grid", s, d)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool caching, so allocs/op is not meaningful under -race")
	}
	g, err := gridgen.Generate(gridgen.Config{K: 12, Model: gridgen.Variance, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, d := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	// Warm the workspace pool and the packed-path scratch.
	for i := 0; i < 4; i++ {
		if _, err := ix.Query(s, d); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		res, err := ix.Query(s, d)
		if err != nil || !res.Found {
			t.Fatalf("query failed: found=%v err=%v", res.Found, err)
		}
	})
	// One allocation for the returned path slice; everything else is pooled.
	if allocs > 2 {
		t.Fatalf("steady-state query allocates %v times per op, want ≤ 2", allocs)
	}
}

func TestQuerySettlesFarFewerNodesThanDijkstra(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 13, Model: gridgen.Variance, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corner to corner: Dijkstra settles nearly the whole grid; CH climbs
	// two shallow cones.
	s, d := graph.NodeID(0), graph.NodeID(g.NumNodes()-1)
	res, err := ix.Query(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("corner pair unreachable")
	}
	if res.Settled >= g.NumNodes()/2 {
		t.Fatalf("ch settled %d of %d nodes; hierarchy is not pruning", res.Settled, g.NumNodes())
	}
}
