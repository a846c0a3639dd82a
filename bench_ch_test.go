// Contraction-hierarchy benchmarks: the preprocessing-based engine's
// query cost against the paper's three classes (represented by Dijkstra
// and A*) and PR 1's goal-directed ALT, across grid sizes. Where every
// other kernel's work grows with the searched region, a CH query climbs
// two rank-increasing cones whose size barely moves with k — the exhibit
// behind BENCH_PR4.json.
//
// The customization benchmarks (CHCustomize, CHTrafficStream) are the
// exhibit behind BENCH_PR6.json: with the topology/metric split, a cost
// change re-prices the hierarchy in milliseconds where it used to pay a
// full re-contraction.
//
// `make bench-ch` and `make bench-customize` regenerate the numbers.
package repro_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/alt"
	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/route"
	"repro/internal/search"
)

// odPair is one origin–destination benchmark pair.
type odPair struct{ s, d graph.NodeID }

// benchPairs returns a deterministic spread of origin–destination pairs on
// a k×k grid, long and short mixed, so service-level numbers aren't an
// artifact of one endpoint geometry.
func benchPairs(k, count int) []odPair {
	rng := rand.New(rand.NewSource(benchSeed))
	n := k * k
	pairs := make([]odPair, count)
	for i := range pairs {
		pairs[i] = odPair{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	return pairs
}

// BenchmarkCHPreprocess measures the full structural preprocessing pass
// (ordering, contraction, CSR freeze, initial customization) per grid
// size — since the CCH split this is the price of a topology change only;
// a cost change pays BenchmarkCHCustomize instead.
func BenchmarkCHPreprocess(b *testing.B) {
	for _, k := range []int{30, 64, 100} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ch.Build(g, ch.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCHQuery compares the cached-index query against Dijkstra, A*,
// and ALT on the corner-to-corner pair, where region-proportional kernels
// do maximal work. Same pair, same graph, same allocation accounting.
func BenchmarkCHQuery(b *testing.B) {
	for _, k := range []int{30, 64, 100} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
		s, d := gridgen.Pair(k, gridgen.Diagonal, benchSeed)
		ix, err := ch.Build(g, ch.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lms, err := alt.SelectLandmarks(g, 8, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		pre, err := alt.Preprocess(g, lms)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d/ch", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ix.Query(s, d)
				if err != nil || !res.Found {
					b.Fatalf("ch query: %v found=%v", err, res.Found)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/dijkstra", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.Dijkstra(g, s, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/astar", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.AStar(g, s, d, estimator.Euclidean()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/alt", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search.AStar(g, s, d, pre.Estimator()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCHRebuildAfterMutation measures the service-level cost of a
// traffic mutation under algo=ch. Since the CCH split, ApplyCongestion
// re-customizes the metric synchronously against the cached topology and
// the follow-up EnableCH finds a fresh index — so this now measures the
// steady-state mutate-and-refresh cycle (milliseconds), not a structural
// re-contraction (seconds). The name is kept so `make bench-ch` output
// stays comparable across PRs.
func BenchmarkCHRebuildAfterMutation(b *testing.B) {
	const k = 64
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.ApplyCongestion(0, 1, 1.0+float64(i%3)); err != nil {
			b.Fatal(err)
		}
		if err := svc.EnableCH(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCHCustomize measures one metric-update cycle against a cached
// topology: apply a 16-edge cost batch, then re-customize the hierarchy
// (Topology.NewIndex). The ratio against BenchmarkCHPreprocess at the
// same k is the whole point of the CCH split — the structural pass runs
// once, cost changes pay only this.
func BenchmarkCHCustomize(b *testing.B) {
	for _, k := range []int{30, 64, 100} {
		g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
		topo, err := ch.BuildTopology(g, ch.Options{})
		if err != nil {
			b.Fatal(err)
		}
		base := g.Edges()
		rng := rand.New(rand.NewSource(benchSeed))
		changes := make([]graph.EdgeCostChange, 16)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The mutation itself is untimed: the measured quantity is
				// re-pricing the hierarchy, the direct counterpart of the
				// full structural pass in BenchmarkCHPreprocess.
				b.StopTimer()
				for j := range changes {
					e := base[rng.Intn(len(base))]
					changes[j] = graph.EdgeCostChange{
						Tail: e.Tail, Head: e.Head,
						Cost: e.Cost * (0.5 + 3*rng.Float64()),
					}
				}
				if _, err := g.ApplyBatch(changes); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := topo.NewIndex(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCHTrafficStream measures the sustained-update cycle end to end
// at the service layer: one ApplyTrafficBatch (16 edges — cost-generation
// bump, cache invalidation, synchronous metric customization) plus one
// cache-bypassing CH route per iteration, the shape of a live feed with
// interleaved queries. The benchmark fails if any query fell back to
// Dijkstra: under synchronous customization the index is never stale.
func BenchmarkCHTrafficStream(b *testing.B) {
	const k = 64
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		b.Fatal(err)
	}
	base := g.Edges()
	rng := rand.New(rand.NewSource(benchSeed))
	changes := make([]graph.EdgeCostChange, 16)
	pairs := benchPairs(k, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range changes {
			e := base[rng.Intn(len(base))]
			changes[j] = graph.EdgeCostChange{
				Tail: e.Tail, Head: e.Head,
				Cost: e.Cost * (0.5 + 3*rng.Float64()),
			}
		}
		if _, err := svc.ApplyTrafficBatch(changes); err != nil {
			b.Fatal(err)
		}
		p := pairs[benchPairCursor.Add(1)%uint64(len(pairs))]
		rt, err := svc.Compute(p.s, p.d, core.Options{Algorithm: core.CH})
		if err != nil || !rt.Found {
			b.Fatalf("ch route: %v found=%v", err, rt.Found)
		}
	}
	b.StopTimer()
	if st := svc.CHStats(); st.StaleFallbacks != 0 {
		b.Fatalf("%d queries fell back to Dijkstra during the stream", st.StaleFallbacks)
	}
}

// benchPairCursor advances monotonically across every service-benchmark
// run in the process, so repeated runs (-count) keep drawing fresh
// endpoint pairs instead of replaying ones the route cache already holds.
var benchPairCursor atomic.Uint64

// BenchmarkCHServiceQuery measures the full service path (cache lookup,
// version gate, index query, telemetry) for algo=ch against algo=dijkstra.
// The pair pool is far larger than the route cache and consumed through a
// process-global cursor, so every request is a cache miss and the search
// engine actually runs; a cached hit is ~250ns regardless of algorithm and
// would measure the LRU, not the hierarchy.
func BenchmarkCHServiceQuery(b *testing.B) {
	const k = 64
	g := gridgen.MustGenerate(gridgen.Config{K: k, Model: gridgen.Variance, Seed: benchSeed})
	svc := route.NewService(g)
	if err := svc.EnableCH(); err != nil {
		b.Fatal(err)
	}
	pairs := benchPairs(k, 1<<16)
	for _, algo := range []core.Algorithm{core.CH, core.Dijkstra} {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[benchPairCursor.Add(1)%uint64(len(pairs))]
				rt, err := svc.Compute(p.s, p.d, core.Options{Algorithm: algo})
				if err != nil || !rt.Found {
					b.Fatalf("%v: %v found=%v", algo, err, rt.Found)
				}
			}
		})
	}
}
