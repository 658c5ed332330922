// Package core implements the paper's contribution: non-stochastic
// bipartite Kronecker product graphs C = A ⊗ B (Assumption 1(i)) and
// C = (A+I_A) ⊗ B (Assumption 1(ii)) with exact ground truth for degrees,
// two-walk counts, per-vertex and per-edge 4-cycle (butterfly) counts,
// global 4-cycle counts, bipartite edge clustering coefficients, and
// connectivity/bipartiteness guarantees (Theorems 1–6).
//
// All ground truth is computed from the factors alone: O(|V_A|+|V_B|)
// state answers point queries in O(1) and global counts in sublinear time,
// while the product itself — which may have millions of edges — is only
// ever streamed or optionally materialized for validation.
//
// Index convention: the paper's 1-based maps α, β, γ become 0-based here:
// product vertex p = i·n_B + k pairs factor vertices (i, k), with
// i = p / n_B and k = p % n_B.
package core

import (
	"fmt"

	"kronbip/internal/graph"
	"kronbip/internal/grb"
)

// Factor bundles a factor graph with the per-vertex and per-edge statistics
// every Kronecker ground-truth formula consumes.  It is the paper's
// O(|E_C|^{1/2})-sized data structure: all product-level ground truth
// derives from two of these.  A Factor is immutable once built, so one
// may serve several chain levels that name the same graph.
type Factor struct {
	G *graph.Graph

	D  []int64 // degree vector d = A·1
	W2 []int64 // two-walk vector w⁽²⁾ = A²·1
	S  []int64 // per-vertex 4-cycle counts s (Def. 8)

	// Sq stores ◊_ij (Def. 9) at every stored edge of A, symmetric, on
	// A's own pattern (explicit zeros included).
	Sq *grb.Matrix[int64]

	Global4   int64 // number of distinct 4-cycles in the factor
	Triangles int64 // number of distinct 3-cycles (0 for bipartite factors)
}

// NewFactor validates that g is a simple undirected graph (no self loops)
// and computes its statistics in one degree-ordered wedge pass, the
// vertex-priority butterfly count of Wang et al. (PVLDB 2019) on the
// Chiba–Nishizeki ordering.  Vertices are ranked by (degree, id); for
// each vertex u the pass counts, in a dense accumulator c(u,w), the
// wedges u–v–w whose v and w both rank below u.  Every 4-cycle is then
// charged exactly once, at its top-ranked vertex u and the vertex w
// opposite it, and the rule is:
//
//	s_u and s_w gain C(c(u,w), 2);
//	each wedge u–v–w adds c(u,w)−1 to s_v, ◊_uv and ◊_vw.
//
// A triangle is counted once, at its top vertex u, as the wedge u–v–w
// with rank(w) < rank(v) and w adjacent to u.  A lower-ranked v has
// degree at most d_u, so the pass touches O(Σ_{(u,v)∈E} min(d_u, d_v))
// wedges, O(m^1.5) at worst, in O(n+m) memory.  The values equal Def. 8
// and Def. 9 exactly; internal/count's algebraic counters are the
// oracles the tests hold this pass to.
func NewFactor(g *graph.Graph) (*Factor, error) {
	if err := loopFree(g); err != nil {
		return nil, err
	}
	return newFactor(g), nil
}

// loopFree is the one premise NewFactor checks.
func loopFree(g *graph.Graph) error {
	if g.NumSelfLoops() > 0 {
		return fmt.Errorf("core: factor has self loops; Kronecker formulas require loop-free factors (self loops are added by the product mode, not the factor)")
	}
	return nil
}

// newFactor is NewFactor on a graph already known to be loop-free.
func newFactor(g *graph.Graph) *Factor {
	n := g.N()
	d := g.Degrees()
	rank := degreeRank(d)
	// rowPtr and colIdx copy A's pattern; sq[p] accumulates the ◊
	// charged at CSR position p, one orientation per charge, until the
	// two orientations of each edge are summed below.
	rowPtr := make([]int, n+1)
	for u := 0; u < n; u++ {
		rowPtr[u+1] = rowPtr[u] + int(d[u])
	}
	colIdx := make([]int, 0, rowPtr[n])
	for u := 0; u < n; u++ {
		colIdx = append(colIdx, g.Neighbors(u)...)
	}
	sq := make([]int64, rowPtr[n])
	w2 := make([]int64, n)
	s := make([]int64, n)
	c := make([]int64, n) // c(u,w) for the current top vertex u
	adj := make([]int, n) // adj[x] == u+1 iff x is a neighbor of u
	touched := make([]int, 0, 64)
	var global4, triangles int64
	for u := 0; u < n; u++ {
		ru := rank[u]
		nu := colIdx[rowPtr[u]:rowPtr[u+1]]
		for _, v := range nu {
			adj[v] = u + 1
			w2[u] += d[v]
		}
		for _, v := range nu {
			rv := rank[v]
			if rv >= ru {
				continue
			}
			for _, w := range colIdx[rowPtr[v]:rowPtr[v+1]] {
				rw := rank[w]
				if rw >= ru {
					continue
				}
				if c[w] == 0 {
					touched = append(touched, w)
				}
				c[w]++
				if rw < rv && adj[w] == u+1 {
					triangles++
				}
			}
		}
		var top int64
		for _, w := range touched {
			x := c[w] * (c[w] - 1) / 2
			s[w] += x
			top += x
		}
		if top > 0 {
			s[u] += top
			global4 += top
			for i, v := range nu {
				if rank[v] >= ru {
					continue
				}
				var k int64
				for j, w := range colIdx[rowPtr[v]:rowPtr[v+1]] {
					if rank[w] >= ru {
						continue
					}
					x := c[w] - 1
					sq[rowPtr[v]+j] += x
					k += x
				}
				s[v] += k
				sq[rowPtr[u]+i] += k
			}
		}
		for _, w := range touched {
			c[w] = 0
		}
		touched = touched[:0]
	}
	// Sum the two orientations of every edge into both.  Row j's columns
	// below j arrive in the order rows i < j are scanned, so next[j] is
	// always the position of (j, i).
	next := append([]int(nil), rowPtr[:n]...)
	for i := 0; i < n; i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			j := colIdx[p]
			if j < i {
				continue
			}
			q := next[j]
			next[j]++
			sq[p] += sq[q]
			sq[q] = sq[p]
		}
	}
	m, err := grb.NewCSR(n, n, rowPtr, colIdx, sq)
	if err != nil {
		panic(err) // a copy of a valid CSR pattern
	}
	return &Factor{
		G:         g,
		D:         d,
		W2:        w2,
		S:         s,
		Sq:        m,
		Global4:   global4,
		Triangles: triangles,
	}
}

// degreeRank ranks vertices by (degree, id) with a counting sort: rank[v]
// is v's position in that order.
func degreeRank(d []int64) []int {
	var maxD int64
	for _, x := range d {
		maxD = max(maxD, x)
	}
	start := make([]int, maxD+1)
	for _, x := range d {
		start[x]++
	}
	sum := 0
	for x, cnt := range start {
		start[x] = sum
		sum += cnt
	}
	rank := make([]int, len(d))
	for v, x := range d {
		rank[v] = start[x]
		start[x]++
	}
	return rank
}

// N returns the number of factor vertices.
func (f *Factor) N() int { return f.G.N() }

// SqAt returns ◊_ij for a factor edge, or an error for a non-edge.
func (f *Factor) SqAt(i, j int) (int64, error) {
	if !f.G.HasEdge(i, j) {
		return 0, fmt.Errorf("core: (%d,%d) is not a factor edge", i, j)
	}
	return f.Sq.At(i, j), nil
}

// diag4 returns diag(A⁴)_i = 2s_i + d_i² + w⁽²⁾_i − d_i (Fig. 2).
func (f *Factor) diag4(i int) int64 {
	return 2*f.S[i] + f.D[i]*f.D[i] + f.W2[i] - f.D[i]
}

// walk3 returns W^(3)(i,j) = (A³)_ij at a factor edge:
// ◊_ij + d_i + d_j − 1 (Fig. 4).  Callers must pass an edge.
func (f *Factor) walk3(i, j int) int64 {
	return f.Sq.At(i, j) + f.D[i] + f.D[j] - 1
}
