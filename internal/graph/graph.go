// Package graph provides an undirected simple-graph layer over the CSR
// matrices of package grb: construction from edge lists, traversal,
// connectivity, bipartiteness testing with odd-cycle witnesses, and the
// global metrics (eccentricity, diameter) whose ground-truth behaviour the
// paper inherits from prior Kronecker work.
package graph

import (
	"fmt"

	"kronbip/internal/grb"
)

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int
}

// Graph is an undirected graph backed by a symmetric CSR adjacency matrix
// with unit weights.  Self loops are permitted (the paper's (A+I_A) factor
// uses them) but simple-graph constructors reject them unless noted.
type Graph struct {
	adj *grb.Matrix[int64]
}

// New builds a graph on n vertices from an undirected edge list.  Duplicate
// edges collapse to a single unit edge; self loops are rejected (add them
// later with WithFullSelfLoops if the (A+I) construction is needed).
func New(n int, edges []Edge) (*Graph, error) {
	b := grb.NewBuilder[int64](n, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self loop (%d,%d) not allowed in New", e.U, e.V)
		}
		b.AddSym(e.U, e.V, 1)
	}
	m, err := b.Build()
	if err != nil {
		return nil, err
	}
	// Clamp duplicate-summed weights back to 1: the builder sums duplicates.
	m, err = grb.Apply(m, func(int64) int64 { return 1 })
	if err != nil {
		return nil, err
	}
	return &Graph{adj: m}, nil
}

// MustNew is New that panics on error, for statically correct literals.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// FromAdjacency wraps a symmetric 0/1 CSR matrix as a Graph.  The matrix is
// validated for symmetry and unit weights; diagonal entries are accepted
// (they represent self loops).
func FromAdjacency(a *grb.Matrix[int64]) (*Graph, error) {
	if a.NRows() != a.NCols() {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", a.NRows(), a.NCols())
	}
	if !grb.IsSymmetric(a) {
		return nil, fmt.Errorf("graph: adjacency must be symmetric")
	}
	ok := true
	a.Iterate(func(i, j int, v int64) bool {
		if v != 1 {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		return nil, fmt.Errorf("graph: adjacency must be 0/1 valued")
	}
	return &Graph{adj: a}, nil
}

// Adjacency returns the underlying CSR adjacency matrix (shared, not
// copied; treat as read-only).
func (g *Graph) Adjacency() *grb.Matrix[int64] { return g.adj }

// N returns the number of vertices.
func (g *Graph) N() int { return g.adj.NRows() }

// NumEdges returns the number of undirected edges; each self loop counts as
// one edge.
func (g *Graph) NumEdges() int {
	loops := 0
	for i := 0; i < g.N(); i++ {
		if g.adj.Has(i, i) {
			loops++
		}
	}
	return (g.adj.NNZ()-loops)/2 + loops
}

// NumSelfLoops returns the number of vertices with a self loop.
func (g *Graph) NumSelfLoops() int {
	loops := 0
	for i := 0; i < g.N(); i++ {
		if g.adj.Has(i, i) {
			loops++
		}
	}
	return loops
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj.Has(u, v) }

// Neighbors returns the sorted neighbor list of v (aliases internal
// storage; do not modify).
func (g *Graph) Neighbors(v int) []int {
	cols, _ := g.adj.Row(v)
	return cols
}

// Degree returns the degree of v; a self loop contributes 1 (row nnz), which
// matches d = A·1 on a 0/1 adjacency with a unit diagonal.
func (g *Graph) Degree(v int) int { return g.adj.RowNNZ(v) }

// Degrees returns the degree vector d_A = A·1 as int64.
func (g *Graph) Degrees() []int64 {
	return grb.ReduceRows(grb.PlusMonoid[int64](), g.adj)
}

// TwoWalks returns w^(2) = A²·1, the number of 2-hop walks leaving each
// vertex (the paper's w_A^{(2)}).
func (g *Graph) TwoWalks() []int64 {
	d := g.Degrees()
	w2, err := grb.MxV(g.adj, d)
	if err != nil {
		panic(err) // dimensions are consistent by construction
	}
	return w2
}

// Edges returns all undirected edges with U <= V, sorted lexicographically.
// It builds a new, exactly sized slice on every call — O(nnz) time and
// one allocation — so callers must hoist it out of loops.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.adj.Iterate(func(i, j int, _ int64) bool {
		if i <= j {
			out = append(out, Edge{i, j})
		}
		return true
	})
	return out
}

// EachEdge calls fn once per undirected edge (u <= v); stops early if fn
// returns false.
func (g *Graph) EachEdge(fn func(u, v int) bool) {
	g.adj.Iterate(func(i, j int, _ int64) bool {
		if i <= j {
			return fn(i, j)
		}
		return true
	})
}

// WithFullSelfLoops returns the graph of A + I_A (the paper's Assump. 1(ii)
// factor).  Existing self loops are preserved, not doubled.
func (g *Graph) WithFullSelfLoops() *Graph {
	m, err := grb.PlusDiag(g.adj, int64(1))
	if err != nil {
		panic(err)
	}
	m, _ = grb.Apply(m, func(int64) int64 { return 1 })
	return &Graph{adj: m}
}

// WithoutSelfLoops returns the graph with all diagonal entries removed
// (the paper's C - C∘I_C).
func (g *Graph) WithoutSelfLoops() *Graph {
	return &Graph{adj: grb.OffDiagonal(g.adj)}
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.NumEdges())
}
