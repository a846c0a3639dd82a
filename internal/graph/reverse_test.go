package graph

import "testing"

// buildTriangle returns a small directed graph for reverse-cache tests.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 3)
	b.AddNode(0, 0)
	b.AddNode(1, 0)
	b.AddNode(0, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReverseViewCachesUntilCostChange(t *testing.T) {
	g := buildTriangle(t)

	r1 := g.ReverseView()
	r2 := g.ReverseView()
	if r1 != r2 {
		t.Fatal("ReverseView rebuilt for the same graph")
	}
	if c, ok := r1.ArcCost(1, 0); !ok || c != 1 {
		t.Fatalf("reverse edge (1,0) cost = %v, %v; want 1, true", c, ok)
	}

	// New costs arrive as a new graph, which gets a reverse of its own.
	c := g.Clone()
	if _, err := c.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 5}}); err != nil {
		t.Fatal(err)
	}
	r3 := c.ReverseView()
	if r3 == r1 {
		t.Fatal("re-priced clone served the original's reverse")
	}
	if c, ok := r3.ArcCost(1, 0); !ok || c != 5 {
		t.Fatalf("re-priced reverse edge (1,0) cost = %v, %v; want 5, true", c, ok)
	}
	if r4 := c.ReverseView(); r4 != r3 {
		t.Fatal("ReverseView rebuilt for the same clone")
	}
}

func TestCloneDoesNotShareReverseCache(t *testing.T) {
	g := buildTriangle(t)
	r := g.ReverseView()
	c := g.Clone()
	if _, err := c.ApplyBatch([]EdgeCostChange{{Tail: 0, Head: 1, Cost: 7}}); err != nil {
		t.Fatal(err)
	}
	if cr := c.ReverseView(); cr == r {
		t.Fatal("clone shares the original's cached reverse")
	}
	if g.ReverseView() != r {
		t.Fatal("re-pricing a clone replaced the original's reverse")
	}
	if cost, _ := g.ReverseView().ArcCost(1, 0); cost != 1 {
		t.Fatalf("original reverse edge (1,0) cost = %v after re-pricing a clone, want 1", cost)
	}
}
