package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kronbip/internal/count"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
	"kronbip/internal/grb"
)

// checkFactorStats holds NewFactor's wedge pass to the internal/count
// oracles: S to both vertex counters (Def. 8 algebraic, combinatorial),
// Sq to Def. 9's algebraic matrix with the same pattern, explicit zeros
// included, Triangles to the triangle counter and Global4 to Σs/4.
func checkFactorStats(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	f, err := NewFactor(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sAlg, err := count.VertexButterfliesAlgebraic(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sComb, err := count.VertexButterflies(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(f.S, sAlg) || !slices.Equal(f.S, sComb) {
		t.Fatalf("%s: S = %v, algebraic %v, combinatorial %v", name, f.S, sAlg, sComb)
	}
	sq, err := count.EdgeButterfliesAlgebraic(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !grb.Equal(f.Sq, sq) || !samePattern(f.Sq, sq) || !samePattern(f.Sq, g.Adjacency()) {
		t.Fatalf("%s: Sq = %v, algebraic %v", name, f.Sq, sq)
	}
	tri, err := count.GlobalTriangles(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if f.Triangles != tri {
		t.Fatalf("%s: Triangles = %d, oracle %d", name, f.Triangles, tri)
	}
	sum := grb.SumVec(f.S)
	if sum%4 != 0 || f.Global4 != sum/4 {
		t.Fatalf("%s: Global4 = %d, Σs = %d", name, f.Global4, sum)
	}
	if !slices.Equal(f.D, g.Degrees()) || !slices.Equal(f.W2, g.TwoWalks()) {
		t.Fatalf("%s: D or W2 differ from the graph's", name)
	}
}

// samePattern reports whether a and b store entries at exactly the
// same coordinates, zeros included.
func samePattern(a, b *grb.Matrix[int64]) bool {
	if a.NRows() != b.NRows() || a.NCols() != b.NCols() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.NRows(); i++ {
		ca, _ := a.Row(i)
		cb, _ := b.Row(i)
		if !slices.Equal(ca, cb) {
			return false
		}
	}
	return true
}

// randomSimpleGraph is a disjoint union of one to three G(n,p)
// components plus a few isolated vertices, under a random relabeling,
// so components, triangles, degree ties and id order all vary.
func randomSimpleGraph(rng *rand.Rand) *graph.Graph {
	var edges []graph.Edge
	n := rng.Intn(4) // isolated vertices
	for c := 1 + rng.Intn(3); c > 0; c-- {
		size, p := 1+rng.Intn(16), rng.Float64()
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < p {
					edges = append(edges, graph.Edge{U: n + i, V: n + j})
				}
			}
		}
		n += size
	}
	perm := rng.Perm(n)
	for k, e := range edges {
		edges[k] = graph.Edge{U: perm[e.U], V: perm[e.V]}
	}
	return graph.MustNew(n, edges)
}

func TestFactorStatsMatchOracles(t *testing.T) {
	for _, c := range chainOracleCases() {
		checkFactorStats(t, c.name+"/A", c.a)
		for k, b := range c.bs {
			checkFactorStats(t, fmt.Sprintf("%s/B%d", c.name, k+1), b)
		}
	}
	zoo := map[string]*graph.Graph{
		"cycle5":      gen.Cycle(5),
		"cycle8":      gen.Cycle(8),
		"complete1":   gen.Complete(1),
		"complete2":   gen.Complete(2),
		"complete5":   gen.Complete(5),
		"complete7":   gen.Complete(7),
		"petersen":    gen.Petersen(),
		"star9":       gen.Star(9),
		"doublestar":  gen.DoubleStar(3, 5),
		"crown6":      gen.Crown(6).Graph,
		"biclique4x5": gen.CompleteBipartite(4, 5).Graph,
		"hypercube4":  gen.Hypercube(4),
		"grid4x5":     gen.Grid(4, 5),
		"tree4":       gen.BinaryTree(4),
		"lollipop":    gen.Lollipop(4, 3),
		"unicode":     gen.UnicodeLike(2020).Graph,
		"sf":          gen.ScaleFree(300, 3, 7),
		"bipsf":       gen.ConnectedBipartiteScaleFree(60, 90, 600, 9).Graph,
		"disjoint":    gen.DisjointUnion(gen.Complete(4), gen.Crown(4).Graph),
		"isolated":    graph.MustNew(5, nil),
		"empty":       graph.MustNew(0, nil),
	}
	for name, g := range zoo {
		checkFactorStats(t, name, g)
	}
	rng := rand.New(rand.NewSource(22))
	withTriangles := 0
	for i := 0; i < 300; i++ {
		g := randomSimpleGraph(rng)
		checkFactorStats(t, fmt.Sprintf("random%d", i), g)
		if f, _ := NewFactor(g); f.Triangles > 0 {
			withTriangles++
		}
	}
	if withTriangles < 100 {
		t.Fatalf("only %d of 300 random graphs have triangles", withTriangles)
	}
}

// TestChainSharesFactors: a chain level that names A's graph again gets
// A's *Factor, not a second one.
func TestChainSharesFactors(t *testing.T) {
	b := gen.Crown(4).Graph
	p, err := NewChain(b, ModeSelfLoopFactor, b, gen.Path(3), b)
	if err != nil {
		t.Fatal(err)
	}
	fs := p.Factors()
	if fs[0] != fs[1] || fs[0] != fs[3] {
		t.Fatal("levels naming one graph hold different *Factor values")
	}
	if fs[2] == fs[0] {
		t.Fatal("distinct graphs share a *Factor")
	}
}

// FuzzFactorStats builds a simple graph on at most 64 vertices from the
// fuzz bytes (the first byte picks n, each later pair an edge; loops
// are dropped) and holds NewFactor to the oracles.
func FuzzFactorStats(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 2, 0, 3})
	f.Add([]byte{63, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 9, 40, 40, 41})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		var edges []graph.Edge
		for k := 1; k+1 < len(data); k += 2 {
			u, v := int(data[k])%n, int(data[k+1])%n
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		checkFactorStats(t, "fuzz", graph.MustNew(n, edges))
	})
}
