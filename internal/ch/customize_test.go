package ch

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/gridgen"
)

// TestCustomizedMatchesRebuildAndDijkstra is the differential guarantee of
// the topology/metric split: after every batch of a random mutation
// stream, each applied to a fresh clone, an index re-customized over the
// original topology must return exactly the same distances as an index
// rebuilt from scratch and as textbook Dijkstra, on every sampled pair.
// Runs under -race in CI.
func TestCustomizedMatchesRebuildAndDijkstra(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 9, Model: gridgen.Variance, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	n := g.NumNodes()
	edges := g.Edges() // base costs; mutations below set absolutes from these
	rounds, pairs := 8, 25
	if testing.Short() {
		rounds, pairs = 3, 8
	}
	for round := 0; round < rounds; round++ {
		// One random batch: a handful of edges jump to random multiples of
		// their base cost, applied to a new graph.
		batch := make([]graph.EdgeCostChange, 0, 12)
		for i := 0; i < 12; i++ {
			e := edges[rng.Intn(len(edges))]
			batch = append(batch, graph.EdgeCostChange{
				Tail: e.Tail, Head: e.Head, Cost: e.Cost * (0.5 + 3*rng.Float64()),
			})
		}
		g = g.Clone()
		if _, err := g.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}

		customized, err := topo.NewIndex(g)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pairs; i++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			cres, err := customized.Query(s, d)
			if err != nil {
				t.Fatal(err)
			}
			rres, err := rebuilt.Query(s, d)
			if err != nil {
				t.Fatal(err)
			}
			want, found := oracleDijkstra(g, s, d)
			if cres.Found != found || rres.Found != found {
				t.Fatalf("round %d %d→%d: customized found=%v rebuilt=%v dijkstra=%v",
					round, s, d, cres.Found, rres.Found, found)
			}
			if !found {
				continue
			}
			if math.Abs(cres.Cost-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("round %d %d→%d: customized %v, dijkstra %v", round, s, d, cres.Cost, want)
			}
			if math.Abs(cres.Cost-rres.Cost) > tol*(1+math.Abs(want)) {
				t.Fatalf("round %d %d→%d: customized %v, rebuilt %v", round, s, d, cres.Cost, rres.Cost)
			}
			checkUnpacked(t, g, s, d, cres)
		}
	}
}

// TestRecustomizationSwitchesUnpackPath pins down that middle nodes are
// metric state, not topology state: congestion on one diamond side must
// flip both the reported cost and the unpacked path to the other side,
// with no structural rebuild.
func TestRecustomizationSwitchesUnpackPath(t *testing.T) {
	// 0→1→3 (cost 2), 0→2→3 (cost 10), plus pressure edges 4→0 and 3→5 so
	// the interior contracts before the terminals and a 0→3 shortcut with
	// triangles over both sides exists.
	b := builderWithNodes(6)
	b.AddEdge(4, 0, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 2, 5)
	b.AddEdge(2, 3, 5)
	b.AddEdge(3, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := topo.NewIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Query(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || math.Abs(res.Cost-4) > tol {
		t.Fatalf("pre-congestion 4→5: found=%v cost=%v, want 4 via node 1", res.Found, res.Cost)
	}
	checkUnpacked(t, g, 4, 5, res)

	// Congest the 0→1→3 side past the alternative.
	g2 := g.Clone()
	if _, err := g2.ApplyBatch([]graph.EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 50},
		{Tail: 1, Head: 3, Cost: 50},
	}); err != nil {
		t.Fatal(err)
	}
	ix2, err := topo.NewIndex(g2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ix2.Query(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found || math.Abs(res2.Cost-12) > tol {
		t.Fatalf("post-congestion 4→5: found=%v cost=%v, want 12 via node 2", res2.Found, res2.Cost)
	}
	checkUnpacked(t, g2, 4, 5, res2)
	via2 := false
	for _, u := range res2.Path.Nodes {
		if u == 2 {
			via2 = true
		}
	}
	if !via2 {
		t.Fatalf("post-congestion path %v does not reroute via node 2", res2.Path.Nodes)
	}
	// The old index still answers for the original graph (immutability).
	resOld, err := ix.Query(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resOld.Cost-4) > tol {
		t.Fatalf("pre-mutation index changed its answer to %v", resOld.Cost)
	}
}

// TestCustomizeRejectsStructuralMismatch: a topology only answers for the
// structure it was contracted from.
func TestCustomizeRejectsStructuralMismatch(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 4, Model: gridgen.Uniform, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := gridgen.Generate(gridgen.Config{K: 5, Model: gridgen.Uniform, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Customize(other); err == nil {
		t.Fatal("customizing against a structurally different graph did not error")
	}
}

// TestConcurrentQueriesDuringCustomization exercises the sharing contract
// under -race: many goroutines query a live index while others customize
// fresh metrics from the same topology. The topology is read-only for
// both; each customization owns its output.
func TestConcurrentQueriesDuringCustomization(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := topo.NewIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				s := graph.NodeID(rng.Intn(n))
				d := graph.NodeID(rng.Intn(n))
				if _, err := ix.Query(s, d); err != nil {
					t.Errorf("query(%d,%d): %v", s, d, err)
					return
				}
			}
		}(int64(w + 1))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Customize against a private clone, as the route service
			// customizes each snapshot it publishes.
			snap := g.Clone()
			for i := 0; i < 10; i++ {
				if _, err := topo.Customize(snap); err != nil {
					t.Errorf("customize: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
