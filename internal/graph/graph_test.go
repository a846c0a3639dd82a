package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// line builds the path graph 0-1-2-…-(n-1) with unit directed edges both
// ways, returning the graph.
func line(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, 2*(n-1))
	for i := 0; i < n; i++ {
		b.AddNode(float64(i), 0)
	}
	for i := 0; i+1 < n; i++ {
		b.AddUndirectedEdge(NodeID(i), NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatalf("Build empty: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	min, max := g.Bounds()
	if min != (Point{}) || max != (Point{}) {
		t.Errorf("empty bounds = %v, %v", min, max)
	}
}

func TestBuilderCounts(t *testing.T) {
	g := line(t, 5)
	if got := g.NumNodes(); got != 5 {
		t.Errorf("NumNodes = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 8 {
		t.Errorf("NumEdges = %d, want 8 (4 undirected segments)", got)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	cases := []struct {
		name string
		u, v NodeID
		c    float64
	}{
		{"negative cost", 0, 1, -1},
		{"nan cost", 0, 1, math.NaN()},
		{"inf cost", 0, 1, math.Inf(1)},
		{"tail out of range", 9, 1, 1},
		{"head out of range", 0, 9, 1},
		{"negative tail", -1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(2, 1)
			b.AddNode(0, 0)
			b.AddNode(1, 1)
			b.AddEdge(tc.u, tc.v, tc.c)
			if _, err := b.Build(); err == nil {
				t.Errorf("Build accepted %s", tc.name)
			}
		})
	}
}

func TestBuilderRejectsBadName(t *testing.T) {
	b := NewBuilder(1, 0)
	b.AddNode(0, 0)
	b.Name(5, "ghost")
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted name on unknown node")
	}
}

func TestNeighborsOrderAndDegree(t *testing.T) {
	b := NewBuilder(4, 3)
	for i := 0; i < 4; i++ {
		b.AddNode(float64(i), 0)
	}
	b.AddEdge(0, 3, 3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 2)
	g := b.MustBuild()

	if d := g.OutDegree(0); d != 3 {
		t.Fatalf("OutDegree(0) = %d, want 3", d)
	}
	var got []Arc
	g.Neighbors(0, func(a Arc) { got = append(got, a) })
	want := []Arc{{3, 3}, {1, 1}, {2, 2}}
	if len(got) != len(want) {
		t.Fatalf("Neighbors returned %d arcs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arc %d = %v, want %v (insertion order must be preserved)", i, got[i], want[i])
		}
	}
	if d := g.OutDegree(2); d != 0 {
		t.Errorf("OutDegree(2) = %d, want 0", d)
	}
}

func TestArcsMatchesNeighbors(t *testing.T) {
	g := line(t, 6)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		var viaCB []Arc
		g.Neighbors(u, func(a Arc) { viaCB = append(viaCB, a) })
		viaSlice := g.Arcs(u)
		if len(viaCB) != len(viaSlice) {
			t.Fatalf("node %d: Neighbors %d arcs, Arcs %d", u, len(viaCB), len(viaSlice))
		}
		for i := range viaCB {
			if viaCB[i] != viaSlice[i] {
				t.Errorf("node %d arc %d: %v vs %v", u, i, viaCB[i], viaSlice[i])
			}
		}
	}
}

func TestArcCostParallelEdgesPicksCheapest(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 2)
	g := b.MustBuild()
	c, ok := g.ArcCost(0, 1)
	if !ok || c != 2 {
		t.Errorf("ArcCost = %v,%v, want 2,true", c, ok)
	}
	if _, ok := g.ArcCost(1, 0); ok {
		t.Error("ArcCost(1,0) reported an edge that does not exist")
	}
	if _, ok := g.ArcCost(-1, 0); ok {
		t.Error("ArcCost(-1,0) reported an edge for an invalid node")
	}
}

func TestApplyBatchSetsAndScales(t *testing.T) {
	g := line(t, 4)
	n, err := g.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 7},
		{Tail: 1, Head: 2, Cost: 2, Scale: true},
		{Tail: 2, Head: 3, Cost: 0.5},
		{Tail: 2, Head: 3, Cost: 3, Scale: true},
	})
	if err != nil || n != 4 {
		t.Fatalf("ApplyBatch = %d, %v; want 4 applied", n, err)
	}
	if c, _ := g.ArcCost(0, 1); c != 7 {
		t.Errorf("set cost = %v, want 7", c)
	}
	if c, _ := g.ArcCost(1, 2); c != 2 {
		t.Errorf("scaled cost = %v, want 2", c)
	}
	if c, _ := g.ArcCost(2, 3); c != 1.5 {
		t.Errorf("set-then-scaled cost = %v, want 1.5 (entries apply in order)", c)
	}
	if c, _ := g.ArcCost(1, 0); c != 1 {
		t.Errorf("untargeted reverse edge = %v, want 1", c)
	}
}

func TestApplyBatchValidatesBeforeApplying(t *testing.T) {
	g := line(t, 3)
	// The second entry is invalid: nothing from the batch may land.
	if _, err := g.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 9},
		{Tail: 0, Head: 1, Cost: -1},
	}); err == nil {
		t.Fatal("ApplyBatch accepted a negative cost")
	}
	if c, _ := g.ArcCost(0, 1); c != 1 {
		t.Errorf("cost after rejected batch = %v, want untouched 1", c)
	}
	for _, f := range []float64{-1, math.NaN()} {
		if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: f, Scale: true}}); err == nil {
			t.Fatalf("ApplyBatch accepted scale factor %v", f)
		}
	}
	if _, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 99, Cost: 1}}); err == nil {
		t.Fatal("ApplyBatch accepted an unknown node")
	}
	// Entries that match no edge are not an error, just not counted.
	n, err := g.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 2, Cost: 1}})
	if err != nil || n != 0 {
		t.Fatalf("no-match batch = %d, %v; want 0, nil", n, err)
	}
	if c, _ := g.ArcCost(0, 1); c != 1 {
		t.Errorf("cost after rejected batches = %v, want untouched 1", c)
	}
}

func TestApplyBatchInvalidatesReverseViewOnce(t *testing.T) {
	g := line(t, 4)
	r0 := g.ReverseView()
	c := g.Clone()
	if _, err := c.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 4},
		{Tail: 1, Head: 2, Cost: 5},
	}); err != nil {
		t.Fatal(err)
	}
	r1 := c.ReverseView()
	if r1 == r0 {
		t.Fatal("re-priced clone served the original's reverse")
	}
	if cost, _ := r1.ArcCost(1, 0); cost != 4 {
		t.Errorf("re-priced reverse cost = %v, want 4", cost)
	}
	if c.ReverseView() != r1 {
		t.Error("ReverseView rebuilt again for the same clone")
	}
}

func TestMinAndTotalCost(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(2, 0)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 0.5)
	g := b.MustBuild()
	if m := g.MinArcCost(); m != 0.5 {
		t.Errorf("MinArcCost = %v, want 0.5", m)
	}
	if s := g.TotalCost(); s != 3.5 {
		t.Errorf("TotalCost = %v, want 3.5", s)
	}
	empty := NewBuilder(0, 0).MustBuild()
	if m := empty.MinArcCost(); !math.IsInf(m, 1) {
		t.Errorf("MinArcCost of empty graph = %v, want +Inf", m)
	}
}

func TestNamesAndLookup(t *testing.T) {
	b := NewBuilder(2, 0)
	a := b.AddNode(0, 0)
	c := b.AddNode(5, 5)
	b.Name(a, "A")
	b.Name(c, "C")
	g := b.MustBuild()

	if id, ok := g.Lookup("A"); !ok || id != a {
		t.Errorf("Lookup(A) = %v,%v", id, ok)
	}
	if _, ok := g.Lookup("Z"); ok {
		t.Error("Lookup(Z) found a ghost")
	}
	if n := g.Name(c); n != "C" {
		t.Errorf("Name(c) = %q, want C", n)
	}
	m := g.NamedNodes()
	if len(m) != 2 {
		t.Fatalf("NamedNodes has %d entries, want 2", len(m))
	}
	m["A"] = 99 // mutating the copy must not affect the graph
	if id, _ := g.Lookup("A"); id != a {
		t.Error("NamedNodes returned a live reference")
	}
}

func TestBounds(t *testing.T) {
	b := NewBuilder(3, 0)
	b.AddNode(-2, 7)
	b.AddNode(4, -1)
	b.AddNode(0, 0)
	g := b.MustBuild()
	min, max := g.Bounds()
	if min != (Point{X: -2, Y: -1}) || max != (Point{X: 4, Y: 7}) {
		t.Errorf("Bounds = %v, %v", min, max)
	}
}

// grid builds a k×k grid with unit edges both ways between neighbours
// and two named corners.
func grid(t *testing.T, k int) *Graph {
	t.Helper()
	b := NewBuilder(k*k, 4*k*(k-1))
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			b.AddNode(float64(x), float64(y))
		}
	}
	id := func(x, y int) NodeID { return NodeID(y*k + x) }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				b.AddUndirectedEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < k {
				b.AddUndirectedEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	b.Name(id(0, 0), "SW")
	b.Name(id(k-1, k-1), "NE")
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestCloneSharesStructureCopiesCosts pins Clone's contract: the clone
// shares every immutable slice and map with its source, so it costs the
// struct plus one cost copy, and re-pricing it leaves the source's
// answers — direct and reverse — exactly as they were.
func TestCloneSharesStructureCopiesCosts(t *testing.T) {
	g := grid(t, 64)
	if allocs := testing.AllocsPerRun(20, func() { _ = g.Clone() }); allocs > 2 {
		t.Errorf("Clone allocated %.0f times, want <= 2 (struct + costs)", allocs)
	}

	r := g.ReverseView()
	c := g.Clone()
	if _, err := c.ApplyBatch([]EdgeCostChange{
		{Tail: 0, Head: 1, Cost: 42},
		{Tail: 1, Head: 0, Cost: 3, Scale: true},
	}); err != nil {
		t.Fatal(err)
	}
	if cost, _ := g.ArcCost(0, 1); cost != 1 {
		t.Errorf("original cost (0,1) = %v after re-pricing the clone, want 1", cost)
	}
	if cost, _ := g.ArcCost(1, 0); cost != 1 {
		t.Errorf("original cost (1,0) = %v after re-pricing the clone, want 1", cost)
	}
	if cost, _ := c.ArcCost(0, 1); cost != 42 {
		t.Errorf("clone cost (0,1) = %v, want 42", cost)
	}
	if cost, _ := c.ArcCost(1, 0); cost != 3 {
		t.Errorf("clone cost (1,0) = %v, want 3", cost)
	}
	if g.ReverseView() != r {
		t.Fatal("re-pricing the clone replaced the original's reverse")
	}
	if cost, _ := r.ArcCost(1, 0); cost != 1 {
		t.Errorf("original reverse cost (1,0) = %v, want 1", cost)
	}
	if cost, _ := c.ReverseView().ArcCost(1, 0); cost != 42 {
		t.Errorf("clone reverse cost (1,0) = %v, want 42", cost)
	}
	if id, ok := c.Lookup("NE"); !ok || id != NodeID(64*64-1) || c.Name(id) != "NE" {
		t.Errorf("clone lost the landmark names: Lookup(NE) = %v, %v", id, ok)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := line(t, 3)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.NumEdges())
	}
	// Every enumerated edge must be queryable.
	for _, e := range edges {
		if _, ok := g.ArcCost(e.Tail, e.Head); !ok {
			t.Errorf("enumerated edge (%d,%d) not found by ArcCost", e.Tail, e.Head)
		}
	}
}

func TestPointDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.EuclideanDistance(q); math.Abs(d-5) > 1e-12 {
		t.Errorf("euclidean = %v, want 5", d)
	}
	if d := p.ManhattanDistance(q); d != 7 {
		t.Errorf("manhattan = %v, want 7", d)
	}
	// Symmetry.
	if p.EuclideanDistance(q) != q.EuclideanDistance(p) {
		t.Error("euclidean distance not symmetric")
	}
	if p.ManhattanDistance(q) != q.ManhattanDistance(p) {
		t.Error("manhattan distance not symmetric")
	}
}

// Property: manhattan ≥ euclidean ≥ 0 for all coordinate pairs, and both are
// zero iff the points coincide (up to float representability).
func TestDistanceProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) ||
			math.IsInf(ax, 0) || math.IsInf(ay, 0) || math.IsInf(bx, 0) || math.IsInf(by, 0) {
			return true // out of scope
		}
		p, q := Point{ax, ay}, Point{bx, by}
		e, m := p.EuclideanDistance(q), p.ManhattanDistance(q)
		if math.IsInf(m, 1) || math.IsInf(e, 1) {
			return true // overflow territory, out of scope
		}
		return e >= 0 && m >= e-1e-9*math.Abs(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathBasics(t *testing.T) {
	g := line(t, 5)
	p := Path{Nodes: []NodeID{0, 1, 2, 3}}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	if p.Source() != 0 || p.Destination() != 3 {
		t.Errorf("endpoints = %d,%d", p.Source(), p.Destination())
	}
	if !p.ValidIn(g) {
		t.Error("valid path reported invalid")
	}
	c, err := p.CostIn(g)
	if err != nil || c != 3 {
		t.Errorf("CostIn = %v, %v; want 3, nil", c, err)
	}

	bad := Path{Nodes: []NodeID{0, 2}}
	if bad.ValidIn(g) {
		t.Error("0->2 reported valid on a line graph")
	}
	if _, err := bad.CostIn(g); err == nil {
		t.Error("CostIn accepted a non-path")
	}

	var empty Path
	if empty.Len() != 0 || empty.Source() != Invalid || empty.Destination() != Invalid {
		t.Error("empty path invariants violated")
	}
	if !empty.ValidIn(g) {
		t.Error("empty path must be valid")
	}
	if empty.String() != "(empty path)" {
		t.Errorf("empty String = %q", empty.String())
	}
	if s := (Path{Nodes: []NodeID{4, 2}}).String(); s != "4 -> 2" {
		t.Errorf("String = %q", s)
	}
}

func TestBuildPath(t *testing.T) {
	// Tree: 0 -> 1 -> 2, 0 -> 3.
	prev := []NodeID{Invalid, 0, 1, 0}
	p := BuildPath(prev, 0, 2)
	want := []NodeID{0, 1, 2}
	if len(p.Nodes) != len(want) {
		t.Fatalf("BuildPath = %v, want %v", p.Nodes, want)
	}
	for i := range want {
		if p.Nodes[i] != want[i] {
			t.Fatalf("BuildPath = %v, want %v", p.Nodes, want)
		}
	}
	if p := BuildPath(prev, 0, 0); p.Len() != 0 || p.Source() != 0 {
		t.Errorf("self path = %v", p.Nodes)
	}
	// Unreached destination.
	prev2 := []NodeID{Invalid, Invalid}
	if p := BuildPath(prev2, 0, 1); len(p.Nodes) != 0 {
		t.Errorf("unreached BuildPath = %v, want empty", p.Nodes)
	}
	// Out-of-range destination.
	if p := BuildPath(prev2, 0, 10); len(p.Nodes) != 0 {
		t.Errorf("out-of-range BuildPath = %v, want empty", p.Nodes)
	}
	// Corrupted predecessor array with a cycle (not through the source)
	// must not loop forever.
	cyc := []NodeID{Invalid, 2, 1}
	if p := BuildPath(cyc, 0, 2); len(p.Nodes) != 0 {
		t.Errorf("cyclic BuildPath = %v, want empty", p.Nodes)
	}
	// Destination whose chain does not reach the requested source.
	orphan := []NodeID{Invalid, Invalid, 1}
	if p := BuildPath(orphan, 0, 2); len(p.Nodes) != 0 {
		t.Errorf("orphan BuildPath = %v, want empty", p.Nodes)
	}
}

// Property: for random trees, BuildPath returns a path whose first node is
// the source, last node is the destination, and every hop follows prev.
func TestBuildPathProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		prev := make([]NodeID, n)
		prev[0] = Invalid
		for i := 1; i < n; i++ {
			prev[i] = NodeID(rng.Intn(i)) // parent strictly earlier: a tree rooted at 0
		}
		dest := NodeID(rng.Intn(n))
		p := BuildPath(prev, 0, dest)
		if p.Source() != 0 || p.Destination() != dest {
			t.Fatalf("trial %d: endpoints %d..%d, want 0..%d", trial, p.Source(), p.Destination(), dest)
		}
		for i := 1; i < len(p.Nodes); i++ {
			if prev[p.Nodes[i]] != p.Nodes[i-1] {
				t.Fatalf("trial %d: hop %d->%d contradicts prev", trial, p.Nodes[i-1], p.Nodes[i])
			}
		}
	}
}

func TestGraphString(t *testing.T) {
	g := line(t, 3)
	if s := g.String(); s != "graph(3 nodes, 4 edges)" {
		t.Errorf("String = %q", s)
	}
}
