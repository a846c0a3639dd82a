package route

import (
	"testing"

	"repro/internal/gridgen"
)

// TestSnapshotReadPathZeroAlloc is the runtime gate behind the
// //atis:hotpath annotations on the snapshot-load read path: loading the
// published snapshot and reading its identity must not allocate, because
// every query — and the per-request X-ATIS-Snapshot header — pays this
// path before any search work.
func TestSnapshotReadPathZeroAlloc(t *testing.T) {
	g := gridgen.MustGenerate(gridgen.Config{K: 6, Model: gridgen.Variance, Seed: 1})
	s := NewService(g)
	if err := s.EnableCH(); err != nil {
		t.Fatal(err)
	}

	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		sn := s.Snapshot()
		sink += sn.CostGeneration() + sn.Generation()
		sink += s.CostGeneration()
		if sn.Graph() == nil || sn.CH() == nil {
			t.Fatal("warmed snapshot missing graph or index")
		}
	})
	if allocs != 0 {
		t.Fatalf("snapshot read path allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}
