package main

import (
	"testing"
)

func TestDigestFollowsSeed(t *testing.T) {
	g, err := generateGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := newStream(w, 7, 4, g).digest()
			if b := newStream(w, 7, 4, g).digest(); a != b {
				t.Errorf("same seed, different digests: %s vs %s", a, b)
			}
			if c := newStream(w, 8, 4, g).digest(); a == c {
				t.Errorf("seeds 7 and 8 gave the same digest %s", a)
			}
		})
	}
}

func TestStreamShapes(t *testing.T) {
	g, err := generateGraph()
	if err != nil {
		t.Fatal(err)
	}
	commute, _ := lookupWorkload("commute")
	s := newStream(commute, 1, 4, g)
	buckets := [3]int{}
	for _, r := range s.open {
		if r.algo != "ch" {
			t.Fatalf("commute read without algo=ch: %+v", r)
		}
		d := gridDist(r.from, r.to)
		for b, lim := range commuteBuckets {
			if d >= lim[0] && d <= lim[1] {
				buckets[b]++
			}
		}
	}
	for b, n := range buckets {
		if n == 0 {
			t.Errorf("commute distance bucket %d never drawn", b)
		}
	}
	if len(s.probe) != probeBatches || len(s.feed) != 0 {
		t.Errorf("commute: %d probe and %d feed batches", len(s.probe), len(s.feed))
	}

	kernels, _ := lookupWorkload("paper-kernels")
	s = newStream(kernels, 1, 4, g)
	seen := map[read]bool{}
	algos := map[string]int{}
	for _, part := range [][]read{s.warm, s.closed, s.open} {
		for _, r := range part {
			if seen[r] {
				t.Fatalf("paper-kernels repeats %+v; the route cache would hit", r)
			}
			seen[r] = true
			algos[r.algo]++
		}
	}
	for _, a := range []string{"", "dijkstra", "iterative"} {
		if algos[a] == 0 {
			t.Errorf("paper-kernels never asks for algo %q", a)
		}
	}

	live, _ := lookupWorkload("live-traffic")
	s = newStream(live, 1, 4, g)
	if len(s.feed) != int(feedRate*4) || len(s.feedDue) != len(s.feed) {
		t.Fatalf("live-traffic: %d feed batches over 4s", len(s.feed))
	}
	for _, b := range s.feed {
		if len(b.changes) != feedEdges {
			t.Fatalf("feed batch of %d edges", len(b.changes))
		}
	}
}
