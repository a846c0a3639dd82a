package main

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/httpapi"
)

// answer renders a route the way GET /v1/route does.
func answer(t *testing.T, rt core.Route) []byte {
	t.Helper()
	body := httpapi.RouteResponse{Found: rt.Found, Cost: rt.Cost, Algorithm: rt.Algorithm.String()}
	for _, u := range rt.Path.Nodes {
		body.Nodes = append(body.Nodes, int32(u))
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func smallGrid(t *testing.T) *graph.Graph {
	t.Helper()
	return gridgen.MustGenerate(gridgen.Config{K: 8, Model: gridgen.Variance, Seed: 3})
}

func dijkstraRoute(t *testing.T, g *graph.Graph, from, to int32) core.Route {
	t.Helper()
	rt, err := core.MustNew(g).Route(graph.NodeID(from), graph.NodeID(to), core.Options{Algorithm: core.Dijkstra})
	if err != nil || !rt.Found {
		t.Fatalf("route %d→%d: found=%v err=%v", from, to, rt.Found, err)
	}
	return rt
}

func TestVerifierAcceptsOptimalRoute(t *testing.T) {
	g := smallGrid(t)
	c := newOracle(g).newChecker()
	r := read{from: 0, to: 63}
	if _, err := c.check(r, answer(t, dijkstraRoute(t, g, 0, 63)), 0, 0); err != nil {
		t.Fatalf("optimal route rejected: %v", err)
	}
}

func TestVerifierRejectsWrongCost(t *testing.T) {
	g := smallGrid(t)
	c := newOracle(g).newChecker()
	rt := dijkstraRoute(t, g, 0, 63)
	rt.Cost += 0.5 // fabricated: the path's arcs no longer sum to it
	if _, err := c.check(read{from: 0, to: 63}, answer(t, rt), 0, 0); !errors.Is(err, errWrong) {
		t.Fatalf("wrong cost accepted: %v", err)
	}
}

func TestVerifierRejectsSuboptimalPath(t *testing.T) {
	g := smallGrid(t)
	c := newOracle(g).newChecker()
	// A valid staircase walk whose reported cost is its own arc sum, but
	// which is not the optimum on a variance grid.
	var nodes []graph.NodeID
	for col := 0; col < 8; col++ {
		nodes = append(nodes, gridgen.NodeAt(8, 0, col))
	}
	for row := 1; row < 8; row++ {
		nodes = append(nodes, gridgen.NodeAt(8, row, 7))
	}
	p := graph.Path{Nodes: nodes}
	cost, err := p.CostIn(g)
	if err != nil {
		t.Fatal(err)
	}
	opt := dijkstraRoute(t, g, 0, 63).Cost
	if sameCost(cost, opt) {
		t.Skip("the L-shaped walk happens to be optimal on this grid")
	}
	rt := core.Route{Found: true, Path: p, Cost: cost, Algorithm: core.Dijkstra}
	if _, err := c.check(read{from: 0, to: 63}, answer(t, rt), 0, 0); !errors.Is(err, errWrong) {
		t.Fatalf("suboptimal path accepted: %v", err)
	}
}

func TestVerifierRejectsBrokenPath(t *testing.T) {
	g := smallGrid(t)
	c := newOracle(g).newChecker()
	rt := dijkstraRoute(t, g, 0, 63)
	// Drop a middle node: two consecutive nodes are no longer adjacent.
	n := rt.Path.Nodes
	rt.Path.Nodes = append(append([]graph.NodeID(nil), n[:3]...), n[4:]...)
	if _, err := c.check(read{from: 0, to: 63}, answer(t, rt), 0, 0); !errors.Is(err, errWrong) {
		t.Fatalf("broken path accepted: %v", err)
	}
	// A path that ends somewhere else.
	rt = dijkstraRoute(t, g, 0, 62)
	if _, err := c.check(read{from: 0, to: 63}, answer(t, rt), 0, 0); !errors.Is(err, errWrong) {
		t.Fatalf("path to the wrong destination accepted: %v", err)
	}
}

// An answer computed on a later snapshot is right only if that snapshot
// may have served the request.
func TestVerifierSnapshotWindow(t *testing.T) {
	g := smallGrid(t)
	o := newOracle(g)
	rt := dijkstraRoute(t, g, 0, 63)
	// Make the free-flow optimum expensive: triple every arc on it.
	var b batch
	for i := 0; i+1 < len(rt.Path.Nodes); i++ {
		u, v := rt.Path.Nodes[i], rt.Path.Nodes[i+1]
		c, _ := g.ArcCost(u, v)
		b.changes = append(b.changes, graph.EdgeCostChange{Tail: u, Head: v, Cost: 3 * c})
	}
	o.apply(b)
	next := g.Clone()
	if _, err := next.ApplyBatch(b.changes); err != nil {
		t.Fatal(err)
	}
	later := answer(t, dijkstraRoute(t, next, 0, 63))
	c := o.newChecker()
	if _, err := c.check(read{from: 0, to: 63}, later, 0, 0); !errors.Is(err, errWrong) {
		t.Fatalf("answer of snapshot 1 accepted for snapshot 0: %v", err)
	}
	v, err := c.check(read{from: 0, to: 63}, later, 0, 1)
	if err != nil || v != 1 {
		t.Fatalf("answer of snapshot 1 in window 0..1: version %d, err %v", v, err)
	}
}
