package route

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/search"
)

// TestSnapshotsCompleteUnderMutationStream is the mutate-while-querying
// guarantee of snapshot publication, run under -race: a sustained
// ApplyTrafficBatch stream publishes new worlds while readers hammer the
// query paths, and every snapshot a reader loads must be complete — its
// CH metric customized for exactly its graph's costs, never a torn
// pairing of new costs with an old metric. On a warmed service the
// stream must also produce zero stale fallbacks: every published
// snapshot carries an index.
func TestSnapshotsCompleteUnderMutationStream(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 10, Model: gridgen.Variance, Seed: 11})
	s := NewService(g)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	n := g.NumNodes()
	stop := make(chan struct{})
	var mutWg, wg sync.WaitGroup

	// Mutator: a sustained traffic stream, one batch per iteration.
	mutWg.Add(1)
	go func() {
		defer mutWg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]graph.EdgeCostChange, 0, 8)
			for i := 0; i < 8; i++ {
				e := edges[rng.Intn(len(edges))]
				batch = append(batch, graph.EdgeCostChange{
					Tail: e.Tail, Head: e.Head, Cost: e.Cost * (0.5 + 2.5*rng.Float64()),
				})
			}
			if _, err := s.ApplyTrafficBatch(batch); err != nil {
				t.Errorf("ApplyTrafficBatch: %v", err)
				return
			}
		}
	}()

	// Invariant watchers: load snapshots as fast as possible and check
	// each one is internally consistent — every snapshot carries an index,
	// one in watchSample answers a CH query exactly as Dijkstra does on
	// the snapshot's own graph, and the publish sequence never runs
	// behind the cost generation.
	const watchSample = 100
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastSeq, lastGen uint64
			for i := 0; i < 4000; i++ {
				sn := s.Snapshot()
				ix := sn.CH()
				if ix == nil {
					t.Error("warmed service published a snapshot without an index")
					return
				}
				if i%watchSample == 0 {
					from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					got, err := ix.Query(from, to)
					if err != nil {
						t.Errorf("ch %d→%d: %v", from, to, err)
						return
					}
					want, err := search.Dijkstra(sn.Graph(), from, to)
					if err != nil {
						t.Errorf("dijkstra %d→%d: %v", from, to, err)
						return
					}
					if got.Found != want.Found || math.Abs(got.Cost-want.Cost) > 1e-9*(1+want.Cost) {
						t.Errorf("torn snapshot: ch %d→%d = (%v, %v), dijkstra on its graph = (%v, %v)",
							from, to, got.Found, got.Cost, want.Found, want.Cost)
						return
					}
				}
				if sn.Generation() < lastSeq || sn.CostGeneration() < lastGen {
					t.Errorf("snapshot identity went backwards: seq %d→%d, gen %d→%d",
						lastSeq, sn.Generation(), lastGen, sn.CostGeneration())
					return
				}
				lastSeq, lastGen = sn.Generation(), sn.CostGeneration()
			}
		}(int64(w + 101))
	}

	// Query readers: ComputeCtx with CH against whatever snapshot each
	// request loads; a CH answer must agree exactly with Dijkstra run
	// against the *same* snapshot — the strongest form of "complete
	// snapshots only", immune to a mutation landing between the two runs.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < 80; i++ {
				from := graph.NodeID(rng.Intn(n))
				to := graph.NodeID(rng.Intn(n))
				sn := s.Snapshot()
				chRt, err := s.computeSnap(ctx, sn, from, to, core.Options{Algorithm: core.CH})
				if err != nil {
					t.Errorf("ch %d→%d: %v", from, to, err)
					return
				}
				if chRt.Algorithm != core.CH {
					t.Errorf("%d→%d: warmed snapshot served %v, want ch", from, to, chRt.Algorithm)
					return
				}
				dij, err := s.computeSnap(ctx, sn, from, to, core.Options{Algorithm: core.Dijkstra})
				if err != nil {
					t.Errorf("dijkstra %d→%d: %v", from, to, err)
					return
				}
				if math.Abs(chRt.Cost-dij.Cost) > 1e-9*(1+dij.Cost) {
					t.Errorf("%d→%d: ch %v vs dijkstra %v on one snapshot", from, to, chRt.Cost, dij.Cost)
					return
				}
			}
		}(int64(w + 1))
	}

	// Batch readers: every pair of a batch is priced under one snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20; i++ {
			pairs := make([]Pair, 8)
			for j := range pairs {
				pairs[j] = Pair{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
			}
			for j, res := range s.ComputeBatch(pairs, core.Options{Algorithm: core.CH}) {
				if res.Err != nil {
					t.Errorf("batch pair %d: %v", j, res.Err)
					return
				}
				if res.Route.Algorithm != core.CH {
					t.Errorf("batch pair %d served by %v, want ch", j, res.Route.Algorithm)
					return
				}
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("snapshot mutation-stream stress did not finish in 60s")
	}
	close(stop)
	mutWg.Wait()

	if st := s.CHStats(); st.StaleFallbacks != 0 {
		t.Fatalf("mutation stream produced %d stale fallbacks on a warmed service, want 0: %+v",
			st.StaleFallbacks, st)
	}
}

// TestStatsNeverBlockBehindWriter pins the satellite fix: CacheStats,
// CHStats, and Snapshot must stay serviceable while a writer holds the
// publish lock mid-customization. The old RWMutex design made a stats
// scrape queue behind every pending writer; the snapshot design reads
// only counters and the atomic pointer.
func TestStatsNeverBlockBehindWriter(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 3})
	s := NewService(g)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}
	// Hold the writer lock, as a slow mutator mid-publish would.
	s.writeMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = s.CacheStats()
		_ = s.CHStats()
		_ = s.Snapshot()
		_ = s.CostGeneration()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stats reads blocked behind the writer lock")
	}
	s.writeMu.Unlock()
}
