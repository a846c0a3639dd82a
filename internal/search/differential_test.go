package search

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
)

// differential_test.go cross-checks the search kernels against each
// other: on any graph, Iterative, Dijkstra, A* with an admissible
// estimator, Bidirectional, and the contraction-hierarchy engine must
// agree on reachability and on the shortest-path cost (paths may differ
// when ties exist, but never costs). A metamorphic pass then scales every
// edge cost by a constant λ and asserts the optimal cost scales by exactly
// λ. Run under -race via `make check`, this doubles as a concurrency
// shakeout of the pooled workspaces the kernels share.

const costTol = 1e-9

type kernel struct {
	name string
	run  func(g *graph.Graph, s, d graph.NodeID) (Result, error)
}

// chIndexes caches one contraction hierarchy per graph for the CH pseudo-
// kernel below. A graph's costs never change once it is shared, so the
// graph pointer alone is the key: the mutation tests re-price a fresh
// clone each round, which gets a hierarchy of its own. sync.Map because
// the differential harness also runs under -race with concurrent subtests.
var chIndexes sync.Map // *graph.Graph → *ch.Index

// runCH adapts the contraction-hierarchy engine to the kernel signature,
// preprocessing each graph on first use. Its settled/relaxed counters map
// onto the trace's expansion counters like every other kernel's.
func runCH(g *graph.Graph, s, d graph.NodeID) (Result, error) {
	v, ok := chIndexes.Load(g)
	if !ok {
		ix, err := ch.Build(g, ch.Options{})
		if err != nil {
			return Result{}, err
		}
		v, _ = chIndexes.LoadOrStore(g, ix)
	}
	res, err := v.(*ch.Index).Query(s, d)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Found: res.Found,
		Path:  res.Path,
		Cost:  res.Cost,
		Trace: Trace{
			Iterations:  res.Settled,
			Expansions:  res.Settled,
			Relaxations: res.Relaxed,
		},
	}, nil
}

// kernelsWith enumerates the implementations under differential test,
// with A* using the given estimator. The Skewed cost model is
// deliberately absent from the generated graphs: its 0.1-cost skewed
// arcs undercut geometric length, which would make the Euclidean
// estimator inadmissible and exempt A* from optimality.
func kernelsWith(est *estimator.Estimator) []kernel {
	return []kernel{
		{"iterative", Iterative},
		{"dijkstra", Dijkstra},
		{"astar-" + est.String(), func(g *graph.Graph, s, d graph.NodeID) (Result, error) {
			return AStar(g, s, d, est)
		}},
		{"bidirectional", Bidirectional},
		{"ch", runCH},
	}
}

// checkPath validates a reported path end-to-end: endpoints, edge
// existence, and that the summed arc costs reproduce the reported cost.
func checkPath(t *testing.T, g *graph.Graph, s, d graph.NodeID, res Result) {
	t.Helper()
	nodes := res.Path.Nodes
	if len(nodes) == 0 || nodes[0] != s || nodes[len(nodes)-1] != d {
		t.Fatalf("path endpoints %v do not span %d→%d", nodes, s, d)
	}
	sum := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		c, ok := g.ArcCost(nodes[i], nodes[i+1])
		if !ok {
			t.Fatalf("path uses nonexistent edge %d→%d", nodes[i], nodes[i+1])
		}
		sum += c
	}
	if math.Abs(sum-res.Cost) > costTol*(1+math.Abs(res.Cost)) {
		t.Fatalf("path cost %v does not match reported cost %v", sum, res.Cost)
	}
}

// runAll executes every kernel on (s, d) and asserts pairwise agreement
// on Found and Cost, returning the agreed optimal cost. est is the
// admissible estimator handed to A* — callers scaling edge costs below
// geometric length must scale the estimator down to match.
func runAll(t *testing.T, g *graph.Graph, s, d graph.NodeID, est *estimator.Estimator) (found bool, cost float64) {
	t.Helper()
	type outcome struct {
		name string
		res  Result
	}
	var outs []outcome
	for _, k := range kernelsWith(est) {
		res, err := k.run(g, s, d)
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", k.name, s, d, err)
		}
		if res.Found {
			checkPath(t, g, s, d, res)
		}
		outs = append(outs, outcome{k.name, res})
	}
	base := outs[0]
	for _, o := range outs[1:] {
		if o.res.Found != base.res.Found {
			t.Fatalf("%d→%d: %s Found=%v but %s Found=%v",
				s, d, base.name, base.res.Found, o.name, o.res.Found)
		}
		if base.res.Found {
			diff := math.Abs(o.res.Cost - base.res.Cost)
			if diff > costTol*(1+math.Abs(base.res.Cost)) {
				t.Fatalf("%d→%d: %s cost %v disagrees with %s cost %v",
					s, d, base.name, base.res.Cost, o.name, o.res.Cost)
			}
		}
	}
	return base.res.Found, base.res.Cost
}

// TestKernelsAgreeOnRandomGrids is the differential harness proper:
// randomized endpoint pairs over Uniform and Variance grids of several
// sizes, all kernels in lockstep.
func TestKernelsAgreeOnRandomGrids(t *testing.T) {
	cases := []struct {
		k     int
		model gridgen.CostModel
		seed  int64
	}{
		{4, gridgen.Uniform, 1},
		{7, gridgen.Uniform, 2},
		{7, gridgen.Variance, 3},
		{11, gridgen.Variance, 4},
		{13, gridgen.Variance, 5},
	}
	pairs := 12
	if testing.Short() {
		pairs = 4
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.model.String(), func(t *testing.T) {
			g, err := gridgen.Generate(gridgen.Config{K: tc.k, Model: tc.model, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(tc.seed * 7919))
			n := g.NumNodes()
			for i := 0; i < pairs; i++ {
				s := graph.NodeID(rng.Intn(n))
				d := graph.NodeID(rng.Intn(n))
				found, _ := runAll(t, g, s, d, estimator.Euclidean())
				if !found {
					t.Fatalf("%d→%d unreachable on a connected grid", s, d)
				}
			}
			// Degenerate pair: s == d must cost zero everywhere.
			s := graph.NodeID(rng.Intn(n))
			if found, cost := runAll(t, g, s, s, estimator.Euclidean()); !found || cost != 0 {
				t.Fatalf("%d→%d: want found at cost 0, got found=%v cost=%v", s, s, found, cost)
			}
		})
	}
}

// TestCHAgreesAfterRandomMutations interleaves random traffic batches with
// full-kernel agreement rounds. Each batch re-prices a fresh clone, the
// way the route service publishes traffic, so every round runs every
// kernel — the CH pseudo-kernel's hierarchy and Bidirectional's reverse
// view included — against a new graph; a hierarchy or reverse leaked from
// a retired round would answer with its costs, and the agreement
// assertion would catch it.
func TestCHAgreesAfterRandomMutations(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 9, Model: gridgen.Variance, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	n := g.NumNodes()
	edges := g.Edges()
	rounds, pairs, mutations := 5, 6, 8
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < pairs; i++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			runAll(t, g, s, d, estimator.Zero())
		}
		// Mutate: costs may rise or fall but stay ≥ 0.1 so the graph stays
		// valid. The estimator above is Zero (always admissible), because
		// lowered costs would break Euclidean's admissibility.
		changes := make([]graph.EdgeCostChange, mutations)
		for i := range changes {
			e := edges[rng.Intn(len(edges))]
			cur, _ := g.ArcCost(e.Tail, e.Head)
			factor := 0.5 + rng.Float64()*1.5
			changes[i] = graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: math.Max(0.1, cur*factor)}
		}
		next := g.Clone()
		if _, err := next.ApplyBatch(changes); err != nil {
			t.Fatalf("round %d batch: %v", round, err)
		}
		g = next
	}
}

// TestMetamorphicCostScaling checks the scaling relation: multiplying
// every edge cost by λ must multiply the optimal cost by exactly λ,
// for every kernel. The scaled graph is a Clone re-priced by ApplyBatch
// after the base graph's reverse view is built, so Bidirectional on the
// clone would return base costs if the clone ever shared that reverse.
func TestMetamorphicCostScaling(t *testing.T) {
	g, err := gridgen.Generate(gridgen.Config{K: 9, Model: gridgen.Variance, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.25, 3} {
		g.ReverseView()
		scaled := g.Clone()
		var changes []graph.EdgeCostChange
		for _, e := range g.Edges() {
			changes = append(changes, graph.EdgeCostChange{Tail: e.Tail, Head: e.Head, Cost: e.Cost * lambda})
		}
		if _, err := scaled.ApplyBatch(changes); err != nil {
			t.Fatalf("scaling by %v: %v", lambda, err)
		}
		// Euclidean is admissible on the base grid because every edge
		// costs at least its unit geometric length; after scaling by
		// λ < 1 that no longer holds, so A* on the scaled graph gets the
		// estimator scaled by min(1, λ) to stay admissible.
		scaledEst := estimator.Euclidean()
		if lambda < 1 {
			scaledEst = estimator.Scaled(estimator.Euclidean(), lambda)
		}
		rng := rand.New(rand.NewSource(int64(lambda * 1000)))
		n := g.NumNodes()
		for i := 0; i < 8; i++ {
			s := graph.NodeID(rng.Intn(n))
			d := graph.NodeID(rng.Intn(n))
			_, base := runAll(t, g, s, d, estimator.Euclidean())
			_, got := runAll(t, scaled, s, d, scaledEst)
			want := base * lambda
			if math.Abs(got-want) > costTol*(1+math.Abs(want)) {
				t.Fatalf("λ=%v %d→%d: scaled cost %v, want %v (base %v)", lambda, s, d, got, want, base)
			}
		}
	}
}
