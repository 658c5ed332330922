package graph

import (
	"math/rand"
	"testing"

	"kronbip/internal/grb"
)

func path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return MustNew(n, edges)
}

func cycle(n int) *Graph {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{i, (i + 1) % n})
	}
	return MustNew(n, edges)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2, []Edge{{0, 2}}); err == nil {
		t.Fatal("New accepted out-of-range vertex")
	}
	if _, err := New(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("New accepted negative vertex")
	}
	if _, err := New(2, []Edge{{1, 1}}); err == nil {
		t.Fatal("New accepted self loop")
	}
}

func TestDuplicateEdgesCollapse(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {0, 1}, {1, 0}, {1, 2}})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
	// Adjacency must stay 0/1 even though duplicates summed in the builder.
	if g.Adjacency().At(0, 1) != 1 {
		t.Fatalf("adjacency value = %d, want 1", g.Adjacency().At(0, 1))
	}
}

func TestFromAdjacencyValidation(t *testing.T) {
	asym, _ := grb.FromDense([][]int64{{0, 1}, {0, 0}})
	if _, err := FromAdjacency(asym); err == nil {
		t.Fatal("FromAdjacency accepted asymmetric matrix")
	}
	rect := grb.Zero[int64](2, 3)
	if _, err := FromAdjacency(rect); err == nil {
		t.Fatal("FromAdjacency accepted rectangular matrix")
	}
	weighted, _ := grb.FromDense([][]int64{{0, 2}, {2, 0}})
	if _, err := FromAdjacency(weighted); err == nil {
		t.Fatal("FromAdjacency accepted non-0/1 values")
	}
	loops, _ := grb.FromDense([][]int64{{1, 1}, {1, 0}})
	if _, err := FromAdjacency(loops); err != nil {
		t.Fatalf("FromAdjacency rejected self loops: %v", err)
	}
}

func TestDegreesAndTwoWalks(t *testing.T) {
	// Star with center 0 and 3 leaves.
	g := MustNew(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if !grb.EqualVec(g.Degrees(), []int64{3, 1, 1, 1}) {
		t.Fatalf("Degrees = %v", g.Degrees())
	}
	// w2(center) = sum of leaf degrees = 3; w2(leaf) = center degree = 3.
	if !grb.EqualVec(g.TwoWalks(), []int64{3, 3, 3, 3}) {
		t.Fatalf("TwoWalks = %v", g.TwoWalks())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 3}, {1, 2}, {2, 3}}
	g := MustNew(5, in)
	out := g.Edges()
	if len(out) != 3 {
		t.Fatalf("Edges returned %d edges, want 3", len(out))
	}
	for _, e := range out {
		if !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) {
			t.Fatalf("edge %v missing from adjacency", e)
		}
		if e.U > e.V {
			t.Fatalf("edge %v not canonical (U<=V)", e)
		}
	}
}

func TestEachEdgeEarlyStop(t *testing.T) {
	g := cycle(10)
	n := 0
	g.EachEdge(func(u, v int) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("EachEdge visited %d, want 4", n)
	}
}

func TestSelfLoopHelpers(t *testing.T) {
	g := path(3)
	l := g.WithFullSelfLoops()
	if l.NumSelfLoops() != 3 {
		t.Fatalf("NumSelfLoops = %d, want 3", l.NumSelfLoops())
	}
	if l.NumEdges() != g.NumEdges()+3 {
		t.Fatalf("NumEdges with loops = %d", l.NumEdges())
	}
	// Degree counts the loop once (row nnz), matching d = A·1 with unit diag.
	if l.Degree(1) != 3 {
		t.Fatalf("Degree with loop = %d, want 3", l.Degree(1))
	}
	// Adding loops twice must stay 0/1.
	ll := l.WithFullSelfLoops()
	if ll.Adjacency().At(0, 0) != 1 {
		t.Fatalf("double loop value = %d, want 1", ll.Adjacency().At(0, 0))
	}
	back := l.WithoutSelfLoops()
	if back.NumSelfLoops() != 0 || back.NumEdges() != g.NumEdges() {
		t.Fatal("WithoutSelfLoops did not restore the simple graph")
	}
}

func TestBFSPath(t *testing.T) {
	g := path(5)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, d, i)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}})
	dist := g.BFS(0)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Fatalf("BFS reached separate component: %v", dist)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	label, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("first component labels differ")
	}
	if label[3] != label[4] || label[3] == label[0] || label[5] == label[0] || label[5] == label[3] {
		t.Fatal("component labels wrong")
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !path(4).IsConnected() {
		t.Fatal("path reported disconnected")
	}
	if !MustNew(0, nil).IsConnected() {
		t.Fatal("empty graph should be connected")
	}
}

func TestHopsEccentricityDiameter(t *testing.T) {
	g := path(5)
	if g.Hops(0, 4) != 4 || g.Hops(2, 2) != 0 {
		t.Fatal("Hops wrong on path")
	}
	if g.Eccentricity(0) != 4 || g.Eccentricity(2) != 2 {
		t.Fatal("Eccentricity wrong on path")
	}
	if g.Diameter() != 4 {
		t.Fatalf("Diameter = %d, want 4", g.Diameter())
	}
	if cycle(6).Diameter() != 3 {
		t.Fatal("Diameter wrong on 6-cycle")
	}
}

func TestDegreeHistogramAndMaxDegree(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	h := g.DegreeHistogram()
	if h[3] != 1 || h[1] != 3 {
		t.Fatalf("DegreeHistogram = %v", h)
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

func TestBipartitionEvenCycle(t *testing.T) {
	bp, _, ok := cycle(8).Bipartition()
	if !ok {
		t.Fatal("even cycle reported non-bipartite")
	}
	if len(bp.U) != 4 || len(bp.W) != 4 {
		t.Fatalf("bipartition sizes %d/%d, want 4/4", len(bp.U), len(bp.W))
	}
}

func TestBipartitionOddCycleWitness(t *testing.T) {
	g := cycle(5)
	_, witness, ok := g.Bipartition()
	if ok {
		t.Fatal("odd cycle reported bipartite")
	}
	if len(witness)%2 == 0 {
		t.Fatalf("witness walk %v has even vertex count (even-length closed walk)", witness)
	}
	// Witness must be a closed walk in the graph.
	for i := 0; i+1 < len(witness); i++ {
		if !g.HasEdge(witness[i], witness[i+1]) {
			t.Fatalf("witness step (%d,%d) is not an edge", witness[i], witness[i+1])
		}
	}
	if !g.HasEdge(witness[len(witness)-1], witness[0]) {
		t.Fatal("witness walk does not close")
	}
}

func TestBipartitionSelfLoop(t *testing.T) {
	g := path(3).WithFullSelfLoops()
	_, witness, ok := g.Bipartition()
	if ok {
		t.Fatal("graph with self loops reported bipartite")
	}
	if len(witness) != 1 {
		t.Fatalf("self-loop witness %v, want single vertex", witness)
	}
}

func TestBipartitionRandomOddEven(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(10)
		// Random bipartite graph.
		var pairs [][2]int
		nu := 1 + n/2
		nw := n - nu
		if nw == 0 {
			nw = 1
		}
		for u := 0; u < nu; u++ {
			for w := 0; w < nw; w++ {
				if rng.Float64() < 0.4 {
					pairs = append(pairs, [2]int{u, w})
				}
			}
		}
		b, err := NewBipartite(nu, nw, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsBipartite() {
			t.Fatal("constructed bipartite graph reported non-bipartite")
		}
	}
}

func TestNewBipartite(t *testing.T) {
	b, err := NewBipartite(2, 3, [][2]int{{0, 0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if b.NU() != 2 || b.NW() != 3 {
		t.Fatalf("parts %d/%d, want 2/3", b.NU(), b.NW())
	}
	if !b.HasEdge(0, 2) || !b.HasEdge(1, 4) {
		t.Fatal("bipartite edges not at block offsets")
	}
	if _, err := NewBipartite(2, 2, [][2]int{{2, 0}}); err == nil {
		t.Fatal("NewBipartite accepted out-of-range pair")
	}
	// Isolated vertices keep their declared side.
	if b.Part.Color[1] != SideU || b.Part.Color[2+1] != SideW {
		t.Fatal("declared sides not preserved")
	}
}

func TestAsBipartite(t *testing.T) {
	if _, err := AsBipartite(cycle(6)); err != nil {
		t.Fatalf("AsBipartite rejected even cycle: %v", err)
	}
	if _, err := AsBipartite(cycle(5)); err == nil {
		t.Fatal("AsBipartite accepted odd cycle")
	}
}
