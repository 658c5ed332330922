package gen

import (
	"math/bits"
	"math/rand"

	"kronbip/internal/graph"
)

// ScaleFree returns a connected non-bipartite graph on n vertices built by
// Barabási–Albert preferential attachment with m edges per arriving vertex.
// The seed makes generation deterministic.  The initial clique K_{m+1}
// guarantees triangles, so the result is non-bipartite — the shape the
// paper's Assumption 1(i) requires of factor A.
func ScaleFree(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		panic("gen: ScaleFree requires m >= 1")
	}
	if n < m+2 {
		panic("gen: ScaleFree requires n >= m+2")
	}
	if m == 1 {
		// Force a triangle so the factor is non-bipartite even with m=1.
		return scaleFreeFrom(n, m, seed, Complete(3))
	}
	return scaleFreeFrom(n, m, seed, Complete(m+1))
}

func scaleFreeFrom(n, m int, seed int64, core *graph.Graph) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := core.Edges()
	// repeated holds each endpoint once per incident edge; sampling from it
	// is sampling proportionally to degree.
	var repeated []int
	for _, e := range edges {
		repeated = append(repeated, e.U, e.V)
	}
	for v := core.N(); v < n; v++ {
		seen := map[int]bool{}
		chosen := make([]int, 0, m) // ordered: map iteration would break seed determinism
		for len(chosen) < m {
			t := repeated[rng.Intn(len(repeated))]
			if !seen[t] {
				seen[t] = true
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			edges = append(edges, graph.Edge{U: v, V: t})
			repeated = append(repeated, v, t)
		}
	}
	return graph.MustNew(n, edges)
}

// BipartiteScaleFree returns a bipartite graph with nu left and nw right
// vertices and approximately targetEdges edges, grown by bipartite
// preferential attachment: each new edge picks its endpoints proportionally
// to (degree + 1) on each side, which produces the heavy-tail degree
// profile typical of term–document and user–item data.  The graph may be
// disconnected (as the paper's unicode factor is); isolated vertices are
// possible on either side.
func BipartiteScaleFree(nu, nw, targetEdges int, seed int64) *graph.Bipartite {
	return mustBipartite(nu, nw, drawBipartiteScaleFree(nu, nw, targetEdges, seed))
}

// drawBipartiteScaleFree draws BipartiteScaleFree's distinct (u, w)
// pairs, in draw order.
func drawBipartiteScaleFree(nu, nw, targetEdges int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]int]bool{}
	var pairs [][2]int

	// Weighted sampling by (deg+1), inverse transform over the running
	// weights: a draw t in [0, Σ(deg+1)) picks the smallest i whose
	// prefix weight exceeds t, found by a Fenwick descent in O(log n).
	wU, wW := newFenwick(nu), newFenwick(nw)
	totalU, totalW := nu, nw
	attempts := 0
	for len(pairs) < targetEdges && attempts < 50*targetEdges {
		attempts++
		u := wU.search(rng.Intn(totalU))
		w := wW.search(rng.Intn(totalW))
		if seen[[2]int{u, w}] {
			continue
		}
		seen[[2]int{u, w}] = true
		pairs = append(pairs, [2]int{u, w})
		wU.add(u, 1)
		wW.add(w, 1)
		totalU++
		totalW++
	}
	return pairs
}

// mustBipartite builds the graph of pairs, which are in range by
// construction.
func mustBipartite(nu, nw int, pairs [][2]int) *graph.Bipartite {
	b, err := graph.NewBipartite(nu, nw, pairs)
	if err != nil {
		panic(err)
	}
	return b
}

// fenwick is a binary indexed tree over non-negative integer weights
// w_0 … w_{n-1}: add changes one weight and search inverts the prefix
// sums, each in O(log n).
type fenwick []int // 1-based: f[i] sums w over (i − lowbit(i), i]

// newFenwick returns the tree of n unit weights.
func newFenwick(n int) fenwick {
	f := make(fenwick, n+1)
	for i := 1; i <= n; i++ {
		f[i] = i & -i
	}
	return f
}

// add adds d to w_i.
func (f fenwick) add(i, d int) {
	for i++; i < len(f); i += i & -i {
		f[i] += d
	}
}

// search returns the smallest i with w_0 + … + w_i > t, for t in
// [0, Σw): the descent finds the longest prefix whose sum is at most t,
// and i is the next index.
func (f fenwick) search(t int) int {
	pos := 0
	for step := 1 << bits.Len(uint(len(f)-1)); step > 0; step >>= 1 {
		if next := pos + step; next < len(f) && f[next] <= t {
			pos = next
			t -= f[next]
		}
	}
	return pos
}

// ConnectedBipartiteScaleFree is BipartiteScaleFree followed by a stitching
// pass that connects every component to the largest one with a single extra
// edge, yielding a connected bipartite factor (the shape Assumption 1
// requires of factor B).  The components come from the drawn pairs, so
// the graph is built once.
func ConnectedBipartiteScaleFree(nu, nw, targetEdges int, seed int64) *graph.Bipartite {
	pairs := drawBipartiteScaleFree(nu, nw, targetEdges, seed)
	// Union-find over the vertices (u on the U side, nu+w on the W side),
	// by path halving.
	parent := make([]int, nu+nw)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, p := range pairs {
		parent[find(nu+p[1])] = find(p[0])
	}
	// Label components in ascending order of their smallest vertex, as
	// graph.ConnectedComponents does, with each one's size and its
	// smallest U- and W-side vertex as representatives.
	label := make([]int, nu+nw) // root → label+1; 0 while unlabelled
	var size, repU, repW []int
	for v := range parent {
		r := find(v)
		if label[r] == 0 {
			size, repU, repW = append(size, 0), append(repU, -1), append(repW, -1)
			label[r] = len(size)
		}
		c := label[r] - 1
		size[c]++
		if v < nu && repU[c] == -1 {
			repU[c] = v
		}
		if v >= nu && repW[c] == -1 {
			repW[c] = v
		}
	}
	largest := 0
	for c, s := range size {
		if s > size[largest] {
			largest = c
		}
	}
	for c := range size {
		if c == largest {
			continue
		}
		// Connect a U vertex of c to a W vertex of the largest component,
		// or vice versa; at least one side of each component is non-empty.
		switch {
		case repU[c] != -1 && repW[largest] != -1:
			pairs = append(pairs, [2]int{repU[c], repW[largest] - nu})
		case repW[c] != -1 && repU[largest] != -1:
			pairs = append(pairs, [2]int{repU[largest], repW[c] - nu})
		}
	}
	return mustBipartite(nu, nw, pairs)
}
