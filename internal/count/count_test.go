package count

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kronbip/internal/gen"
	"kronbip/internal/graph"
	"kronbip/internal/grb"
)

func randomGraph(rng *rand.Rand, n int, density float64) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
	}
	return graph.MustNew(n, edges)
}

func TestVertexButterfliesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want []int64
	}{
		{"C4", gen.Cycle(4), []int64{1, 1, 1, 1}},
		{"path", gen.Path(5), []int64{0, 0, 0, 0, 0}},
		{"star", gen.Star(5), []int64{0, 0, 0, 0, 0}},
		{"K4", gen.Complete(4), []int64{3, 3, 3, 3}},
		{"K33", gen.CompleteBipartite(3, 3).Graph, []int64{6, 6, 6, 6, 6, 6}},
		{"petersen", gen.Petersen(), make([]int64, 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := VertexButterflies(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if !grb.EqualVec(got, tc.want) {
				t.Fatalf("VertexButterflies = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestGlobalButterfliesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"C4", gen.Cycle(4), 1},
		{"C6", gen.Cycle(6), 0},
		{"K4", gen.Complete(4), 3},
		{"K33", gen.CompleteBipartite(3, 3).Graph, 9},
		{"K23", gen.CompleteBipartite(2, 3).Graph, 3},
		{"Q3", gen.Hypercube(3), 6},
		{"crown4", gen.Crown(4).Graph, 6}, // Crown(4) ≅ Q3, the 3-cube: 6 faces
		{"tree", gen.BinaryTree(4), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := GlobalButterflies(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("GlobalButterflies = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestCrownButterfliesValue(t *testing.T) {
	// Independent check of the crown4 expectation: brute force over all
	// 4-subsets is feasible at n=8.
	g := gen.Crown(4).Graph
	var brute int64
	n := g.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				for d := c + 1; d < n; d++ {
					brute += countC4OnQuad(g, [4]int{a, b, c, d})
				}
			}
		}
	}
	got, _ := GlobalButterflies(g)
	if got != brute {
		t.Fatalf("crown: wedge count %d, quad brute force %d", got, brute)
	}
}

// countC4OnQuad counts the 4-cycles on exactly the vertex set q (0..3
// distinct Hamiltonian cycles on 4 vertices).
func countC4OnQuad(g *graph.Graph, q [4]int) int64 {
	perms := [3][4]int{{0, 1, 2, 3}, {0, 1, 3, 2}, {0, 2, 1, 3}}
	var cnt int64
	for _, p := range perms {
		ok := true
		for i := 0; i < 4; i++ {
			if !g.HasEdge(q[p[i]], q[p[(i+1)%4]]) {
				ok = false
				break
			}
		}
		if ok {
			cnt++
		}
	}
	return cnt
}

func TestEdgeButterfliesKnownGraphs(t *testing.T) {
	// C4: every edge lies on the single 4-cycle.
	e, err := EdgeButterflies(gen.Cycle(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 4 {
		t.Fatalf("C4 has %d edges in map, want 4", len(e))
	}
	for edge, cnt := range e {
		if cnt != 1 {
			t.Fatalf("C4 edge %v count = %d, want 1", edge, cnt)
		}
	}
	// K33: every edge has (3-1)(3-1) = 4 butterflies.
	e, err = EdgeButterflies(gen.CompleteBipartite(3, 3).Graph)
	if err != nil {
		t.Fatal(err)
	}
	for edge, cnt := range e {
		if cnt != 4 {
			t.Fatalf("K33 edge %v count = %d, want 4", edge, cnt)
		}
	}
}

func TestEdgeVertexConsistency(t *testing.T) {
	// s_A = ½ ◊_A·1 (paper, after Def. 9): per-vertex counts are half the
	// sum of incident edge counts, since each 4-cycle at v uses 2 edges at v.
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 10+rng.Intn(8), 0.35)
		s, err := VertexButterflies(g)
		if err != nil {
			t.Fatal(err)
		}
		edge, err := EdgeButterflies(g)
		if err != nil {
			t.Fatal(err)
		}
		halfSum := make([]int64, g.N())
		for e, cnt := range edge {
			halfSum[e.U] += cnt
			halfSum[e.V] += cnt
		}
		for v := range halfSum {
			if halfSum[v]%2 != 0 {
				t.Fatalf("incident edge sum odd at %d", v)
			}
			if halfSum[v]/2 != s[v] {
				t.Fatalf("vertex %d: ½Σ◊ = %d, s = %d", v, halfSum[v]/2, s[v])
			}
		}
	}
}

func TestThreeOraclesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 6+rng.Intn(10), 0.3)
		s1, err := VertexButterflies(g)
		if err != nil {
			return false
		}
		s2, err := VertexButterfliesAlgebraic(g)
		if err != nil {
			return false
		}
		if !grb.EqualVec(s1, s2) {
			return false
		}
		g1, err := GlobalButterflies(g)
		if err != nil {
			return false
		}
		g2, err := GlobalButterfliesBFS(g)
		if err != nil {
			return false
		}
		g3, err := GlobalButterfliesAlgebraic(g)
		if err != nil {
			return false
		}
		return g1 == g2 && g1 == g3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeAlgebraicMatchesCombinatorial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 6+rng.Intn(8), 0.35)
		m, err := EdgeButterfliesAlgebraic(g)
		if err != nil {
			return false
		}
		comb, err := EdgeButterflies(g)
		if err != nil {
			return false
		}
		for e, cnt := range comb {
			if m.At(e.U, e.V) != cnt || m.At(e.V, e.U) != cnt {
				return false
			}
		}
		// The algebraic matrix pattern equals the adjacency pattern.
		return m.NNZ() == g.Adjacency().NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := randomGraph(rng, 60, 0.15)
	serial, err := VertexButterflies(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5, 0, 1000} {
		par, err := VertexButterfliesParallel(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !grb.EqualVec(serial, par) {
			t.Fatalf("workers=%d: parallel differs from serial", workers)
		}
	}
}

func TestPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := randomGraph(rng, 14, 0.3)
	s, _ := VertexButterflies(g)
	for v := 0; v < g.N(); v++ {
		if got := VertexButterfliesAt(g, v); got != s[v] {
			t.Fatalf("VertexButterfliesAt(%d) = %d, want %d", v, got, s[v])
		}
	}
	edges, _ := EdgeButterflies(g)
	for e, cnt := range edges {
		got, err := EdgeButterfliesAt(g, e.U, e.V)
		if err != nil {
			t.Fatal(err)
		}
		if got != cnt {
			t.Fatalf("EdgeButterfliesAt(%v) = %d, want %d", e, got, cnt)
		}
		// Symmetric query.
		got2, _ := EdgeButterfliesAt(g, e.V, e.U)
		if got2 != cnt {
			t.Fatalf("EdgeButterfliesAt reversed (%v) = %d, want %d", e, got2, cnt)
		}
	}
	if _, err := EdgeButterfliesAt(g, 0, 0); err == nil {
		t.Fatal("EdgeButterfliesAt accepted non-edge")
	}
}

func TestSelfLoopRejection(t *testing.T) {
	g := gen.Path(4).WithFullSelfLoops()
	if _, err := VertexButterflies(g); err == nil {
		t.Fatal("VertexButterflies accepted self loops")
	}
	if _, err := VertexButterfliesParallel(g, 2); err == nil {
		t.Fatal("VertexButterfliesParallel accepted self loops")
	}
	if _, err := EdgeButterflies(g); err == nil {
		t.Fatal("EdgeButterflies accepted self loops")
	}
	if _, err := VertexButterfliesAlgebraic(g); err == nil {
		t.Fatal("VertexButterfliesAlgebraic accepted self loops")
	}
	if _, err := EdgeButterfliesAlgebraic(g); err == nil {
		t.Fatal("EdgeButterfliesAlgebraic accepted self loops")
	}
	if _, err := GlobalButterfliesBFS(g); err == nil {
		t.Fatal("GlobalButterfliesBFS accepted self loops")
	}
	if _, err := Triangles(g); err == nil {
		t.Fatal("Triangles accepted self loops")
	}
}

func TestTriangles(t *testing.T) {
	tri, err := Triangles(gen.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	if !grb.EqualVec(tri, []int64{3, 3, 3, 3}) {
		t.Fatalf("K4 triangles = %v", tri)
	}
	total, err := GlobalTriangles(gen.Complete(5))
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("K5 global triangles = %d, want 10", total)
	}
	// Bipartite graphs are triangle-free.
	tri, _ = Triangles(gen.CompleteBipartite(4, 4).Graph)
	for _, v := range tri {
		if v != 0 {
			t.Fatal("biclique has nonzero triangle count")
		}
	}
}

func TestTrianglesMatchDiagonal(t *testing.T) {
	// 2t_i = W^(3)(i,i) = diag(A³)_i.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5+rng.Intn(8), 0.4)
		tri, err := Triangles(g)
		if err != nil {
			return false
		}
		a := g.Adjacency()
		a2, _ := grb.MxM(a, a)
		a3, _ := grb.MxM(a2, a)
		diag, _ := grb.Diag(a3)
		for i := range tri {
			if diag[i] != 2*tri[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBipartiteButterfliesViaBicliqueFormula(t *testing.T) {
	// K_{a,b} has C(a,2)·C(b,2) butterflies.
	for _, ab := range [][2]int{{2, 2}, {2, 5}, {3, 4}, {4, 4}, {5, 3}} {
		g := gen.CompleteBipartite(ab[0], ab[1]).Graph
		got, err := GlobalButterflies(g)
		if err != nil {
			t.Fatal(err)
		}
		a, b := int64(ab[0]), int64(ab[1])
		want := a * (a - 1) / 2 * b * (b - 1) / 2
		if got != want {
			t.Fatalf("K_{%d,%d}: got %d, want %d", ab[0], ab[1], got, want)
		}
	}
}
