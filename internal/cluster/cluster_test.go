package cluster

import (
	"math"
	"testing"

	"kronbip/internal/gen"
)

func TestThreePaths(t *testing.T) {
	got, err := ThreePaths(gen.Path(4))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("P4 three-paths = %d, want 1", got)
	}
	got, _ = ThreePaths(gen.Cycle(4))
	if got != 4 {
		t.Fatalf("C4 three-paths = %d, want 4", got)
	}
	if _, err := ThreePaths(gen.Complete(3)); err == nil {
		t.Fatal("ThreePaths accepted non-bipartite graph")
	}
}

func TestGlobalRobinsAlexander(t *testing.T) {
	// Bicliques: coefficient exactly 1.
	for _, ab := range [][2]int{{2, 2}, {3, 4}, {5, 3}} {
		g := gen.CompleteBipartite(ab[0], ab[1]).Graph
		got, err := GlobalRobinsAlexander(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-1) > 1e-12 {
			t.Fatalf("K_{%d,%d} RA coefficient = %g, want 1", ab[0], ab[1], got)
		}
	}
	// Trees: no 4-cycles → 0.
	got, err := GlobalRobinsAlexander(gen.BinaryTree(4))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("tree RA coefficient = %g, want 0", got)
	}
	// No 3-paths at all (single edge) → 0 without dividing by zero.
	got, _ = GlobalRobinsAlexander(gen.Path(2))
	if got != 0 {
		t.Fatal("single edge RA coefficient should be 0")
	}
}
