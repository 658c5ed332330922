package gen

import (
	"math/rand"
	"slices"
	"testing"

	"kronbip/internal/graph"
)

func TestPath(t *testing.T) {
	g := Path(5)
	if g.N() != 5 || g.NumEdges() != 4 {
		t.Fatalf("Path(5): n=%d m=%d", g.N(), g.NumEdges())
	}
	if !g.IsConnected() || !g.IsBipartite() {
		t.Fatal("Path(5) must be connected and bipartite")
	}
	if Path(1).NumEdges() != 0 {
		t.Fatal("Path(1) should have no edges")
	}
}

func TestCycleParity(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		if Cycle(n).IsBipartite() {
			t.Fatalf("odd cycle C_%d reported bipartite", n)
		}
	}
	for _, n := range []int{4, 6, 8} {
		g := Cycle(n)
		if !g.IsBipartite() || !g.IsConnected() || g.NumEdges() != n {
			t.Fatalf("even cycle C_%d wrong", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Cycle(2) did not panic")
		}
	}()
	Cycle(2)
}

func TestStar(t *testing.T) {
	g := Star(6)
	if g.Degree(0) != 5 || g.NumEdges() != 5 {
		t.Fatal("Star(6) wrong shape")
	}
	if !g.IsBipartite() || !g.IsConnected() {
		t.Fatal("star must be bipartite and connected")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.NumEdges() != 10 {
		t.Fatalf("K_5 edges = %d, want 10", g.NumEdges())
	}
	if g.IsBipartite() {
		t.Fatal("K_5 reported bipartite")
	}
}

func TestCompleteBipartite(t *testing.T) {
	b := CompleteBipartite(3, 4)
	if b.NumEdges() != 12 || b.NU() != 3 || b.NW() != 4 {
		t.Fatal("K_{3,4} wrong shape")
	}
	if !b.IsConnected() {
		t.Fatal("biclique must be connected")
	}
}

func TestCrown(t *testing.T) {
	b := Crown(4)
	if b.NumEdges() != 12 { // 16 - 4 matching edges
		t.Fatalf("Crown(4) edges = %d, want 12", b.NumEdges())
	}
	for u := 0; u < 4; u++ {
		if b.HasEdge(u, 4+u) {
			t.Fatal("crown contains matching edge")
		}
	}
	if !b.IsConnected() || !b.IsBipartite() {
		t.Fatal("Crown(4) must be connected bipartite")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 || g.NumEdges() != 3*3+2*4 {
		t.Fatalf("Grid(3,4): n=%d m=%d", g.N(), g.NumEdges())
	}
	if !g.IsBipartite() || !g.IsConnected() {
		t.Fatal("grid must be bipartite and connected")
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(4)
	if g.N() != 15 || g.NumEdges() != 14 {
		t.Fatal("BinaryTree(4) wrong shape")
	}
	if !g.IsConnected() || !g.IsBipartite() {
		t.Fatal("tree must be connected and bipartite")
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.NumEdges() != 15 {
		t.Fatalf("Petersen: n=%d m=%d", g.N(), g.NumEdges())
	}
	if g.IsBipartite() {
		t.Fatal("Petersen reported bipartite")
	}
	if !g.IsConnected() {
		t.Fatal("Petersen reported disconnected")
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 3 {
			t.Fatal("Petersen is 3-regular")
		}
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(5, 3)
	if g.N() != 8 || g.NumEdges() != 8 {
		t.Fatal("Lollipop(5,3) wrong shape")
	}
	if g.IsBipartite() {
		t.Fatal("odd lollipop reported bipartite")
	}
	if !g.IsConnected() {
		t.Fatal("lollipop must be connected")
	}
}

func TestDisjointUnion(t *testing.T) {
	g := DisjointUnion(Path(3), Cycle(4))
	if g.N() != 7 || g.NumEdges() != 6 {
		t.Fatal("DisjointUnion wrong shape")
	}
	if g.IsConnected() {
		t.Fatal("disjoint union reported connected")
	}
	_, count := g.ConnectedComponents()
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
}

func TestDoubleStar(t *testing.T) {
	g := DoubleStar(3, 4)
	if g.N() != 9 || g.NumEdges() != 8 {
		t.Fatal("DoubleStar wrong shape")
	}
	if !g.IsConnected() || !g.IsBipartite() {
		t.Fatal("double star must be connected bipartite")
	}
	if g.Degree(0) != 4 || g.Degree(1) != 5 {
		t.Fatalf("double star centers have degrees %d,%d", g.Degree(0), g.Degree(1))
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.NumEdges() != 32 {
		t.Fatal("Q_4 wrong shape")
	}
	if !g.IsBipartite() || !g.IsConnected() {
		t.Fatal("hypercube must be bipartite connected")
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatal("Q_4 is 4-regular")
		}
	}
}

func TestScaleFreeShape(t *testing.T) {
	g := ScaleFree(100, 2, 42)
	if g.N() != 100 {
		t.Fatalf("n = %d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("scale-free factor must be connected")
	}
	if g.IsBipartite() {
		t.Fatal("scale-free factor must be non-bipartite (Assump 1(i))")
	}
	// Heavy tail: max degree well above the mean.
	mean := float64(2*g.NumEdges()) / float64(g.N())
	if float64(g.MaxDegree()) < 2*mean {
		t.Fatalf("max degree %d not heavy-tailed (mean %.1f)", g.MaxDegree(), mean)
	}
}

func TestScaleFreeDeterministic(t *testing.T) {
	a := ScaleFree(60, 2, 7)
	b := ScaleFree(60, 2, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different edges")
		}
	}
	c := ScaleFree(60, 2, 8)
	if len(c.Edges()) == len(ea) {
		same := true
		for i, e := range c.Edges() {
			if e != ea[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestScaleFreeM1NonBipartite(t *testing.T) {
	g := ScaleFree(30, 1, 3)
	if g.IsBipartite() {
		t.Fatal("ScaleFree with m=1 must still contain a triangle")
	}
	if !g.IsConnected() {
		t.Fatal("ScaleFree with m=1 must be connected")
	}
}

func TestScaleFreePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ScaleFree(10, 0, 1) },
		func() { ScaleFree(3, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid ScaleFree args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBipartiteScaleFree(t *testing.T) {
	b := BipartiteScaleFree(50, 80, 200, 11)
	if b.NU() != 50 || b.NW() != 80 {
		t.Fatal("part sizes wrong")
	}
	if b.NumEdges() != 200 {
		t.Fatalf("edges = %d, want 200", b.NumEdges())
	}
	if !b.IsBipartite() {
		t.Fatal("bipartite generator produced odd cycle")
	}
}

// scanSearch is the reference the Fenwick descent replaced: the linear
// inverse-transform scan BipartiteScaleFree used to run over its
// weights, returning the smallest i whose prefix weight exceeds t.
func scanSearch(w []int, t int) int {
	for i, x := range w {
		t -= x
		if t < 0 {
			return i
		}
	}
	return len(w) - 1
}

// TestFenwickSearchMatchesScan: over random weight vectors (zeros
// included), grown one add at a time, the descent returns the scan's
// index for every t in [0, Σw).
func TestFenwickSearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		w := make([]int, n)
		f := newFenwick(n)
		for i := range w {
			w[i] = 1
		}
		for step := 0; step < 30; step++ {
			i, d := rng.Intn(n), rng.Intn(4)-1
			if w[i]+d < 0 {
				d = -w[i]
			}
			w[i] += d
			f.add(i, d)
			total := 0
			for _, x := range w {
				total += x
			}
			for x := 0; x < total; x++ {
				if got, want := f.search(x), scanSearch(w, x); got != want {
					t.Fatalf("weights %v, t=%d: descent %d, scan %d", w, x, got, want)
				}
			}
		}
	}
}

func TestConnectedBipartiteScaleFree(t *testing.T) {
	b := ConnectedBipartiteScaleFree(40, 60, 90, 5)
	if !b.IsConnected() {
		t.Fatal("ConnectedBipartiteScaleFree produced disconnected graph")
	}
	if !b.IsBipartite() {
		t.Fatal("stitching broke bipartiteness")
	}
}

// stitchByBFS is the stitching pass as it ran before the union-find:
// components by graph.ConnectedComponents on the built graph, which is
// then rebuilt from its edges plus one stitch edge per component.  It
// is the oracle for ConnectedBipartiteScaleFree.
func stitchByBFS(b *graph.Bipartite) *graph.Bipartite {
	label, count := b.ConnectedComponents()
	if count == 1 {
		return b
	}
	repU := make([]int, count)
	repW := make([]int, count)
	for i := range repU {
		repU[i], repW[i] = -1, -1
	}
	size := make([]int, count)
	for v, c := range label {
		size[c]++
		if b.Part.Color[v] == graph.SideU && repU[c] == -1 {
			repU[c] = v
		}
		if b.Part.Color[v] == graph.SideW && repW[c] == -1 {
			repW[c] = v
		}
	}
	largest := 0
	for c, s := range size {
		if s > size[largest] {
			largest = c
		}
	}
	pairs := make([][2]int, 0, b.NumEdges()+count)
	for _, e := range b.Edges() {
		u, w := e.U, e.V
		if b.Part.Color[u] == graph.SideW {
			u, w = w, u
		}
		pairs = append(pairs, [2]int{u, w - b.NU()})
	}
	for c := 0; c < count; c++ {
		if c == largest {
			continue
		}
		switch {
		case repU[c] != -1 && repW[largest] != -1:
			pairs = append(pairs, [2]int{repU[c], repW[largest] - b.NU()})
		case repW[c] != -1 && repU[largest] != -1:
			pairs = append(pairs, [2]int{repU[largest], repW[c] - b.NU()})
		}
	}
	return mustBipartite(b.NU(), b.NW(), pairs)
}

// TestConnectedBipartiteScaleFreeMatchesBFS: the union-find stitching
// builds exactly the graph the BFS stitching built — same components,
// same labels, same representatives, same stitch edges — on sparse
// draws with many components, saturated ones and one-sided ones.
func TestConnectedBipartiteScaleFreeMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type params struct{ nu, nw, m int }
	cases := []params{{48, 96, 240}, {40, 60, 90}, {200, 10, 30}, {1, 50, 40}, {50, 1, 40}, {5, 5, 100}, {3, 3, 0}}
	for len(cases) < 300 {
		nu, nw := 1+rng.Intn(60), 1+rng.Intn(60)
		cases = append(cases, params{nu, nw, rng.Intn(nu*nw/2 + 2)})
	}
	for i, c := range cases {
		seed := int64(i)
		got := ConnectedBipartiteScaleFree(c.nu, c.nw, c.m, seed)
		want := stitchByBFS(BipartiteScaleFree(c.nu, c.nw, c.m, seed))
		if got.NU() != want.NU() || got.NW() != want.NW() || !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("%dx%dx%d seed %d: union-find stitching differs from the BFS stitching", c.nu, c.nw, c.m, seed)
		}
	}
}

func TestUnicodeLike(t *testing.T) {
	a := UnicodeLike(2020)
	if a.NU() != UnicodeNU || a.NW() != UnicodeNW {
		t.Fatalf("parts %d/%d, want %d/%d", a.NU(), a.NW(), UnicodeNU, UnicodeNW)
	}
	if a.NumEdges() != UnicodeEdges {
		t.Fatalf("edges = %d, want %d", a.NumEdges(), UnicodeEdges)
	}
	if !a.IsBipartite() {
		t.Fatal("unicode-like factor not bipartite")
	}
	// The real unicode network is disconnected; the stand-in should be too
	// (isolated territories exist because edges < vertices).
	if a.IsConnected() {
		t.Fatal("unicode-like factor unexpectedly connected")
	}
	// Heavy tail on the language side.
	deg := a.Degrees()
	var max int64
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 20 {
		t.Fatalf("max degree %d too small for a heavy-tail profile", max)
	}
	// Deterministic for a fixed seed.
	b := UnicodeLike(2020)
	if b.NumEdges() != a.NumEdges() || !sameEdges(a.Graph, b.Graph) {
		t.Fatal("UnicodeLike not deterministic")
	}
}

func sameEdges(a, b *graph.Graph) bool {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}
