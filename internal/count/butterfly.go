// Package count implements direct (combinatorial) counting of 4-cycles
// (butterflies) and triangles.  Its counters are oracles only: they
// count an explicit graph, to validate the closed-form Kronecker ground
// truth in package core or to measure a graph that has no closed form
// (the analysis packages), and no generation or ground-truth path runs
// them.  core.NewFactor computes factor statistics with its own
// degree-ordered wedge pass, and its tests hold that pass to these
// counters.  The paper's whole premise is that a generator with exact
// 4-cycle ground truth lets researchers validate counting
// implementations like these.
//
// Two independent implementations are provided for each statistic — a
// wedge-based combinatorial counter and a linear-algebraic counter over
// package grb that evaluates Def. 8 and Def. 9 verbatim — so the test
// suite can cross-check three ways (combinatorial vs. algebraic vs.
// Kronecker formula).
package count

import (
	"context"
	"fmt"

	"kronbip/internal/exec"
	"kronbip/internal/graph"
	"kronbip/internal/obs"
)

// countPollStride bounds how many source vertices a counting worker may
// process after a cancellation before it notices and aborts.
const countPollStride = 64

// Counter metrics: source vertices processed, flushed once per worker
// stripe (never per vertex), so the enabled overhead is a handful of
// atomic adds per parallel call.
var (
	mVertexSources = obs.Default.Counter("count.vertex_butterflies.vertices")
	mEdgeSources   = obs.Default.Counter("count.edge_butterflies.vertices")
)

// VertexButterflies returns, for every vertex v, the number of 4-cycles
// that contain v (the paper's s_A, Def. 8).  The graph must be simple
// (no self loops).  Wedge-based: for each vertex u it accumulates
// common-neighbor counts c(u,w) over all two-hop targets w and sums
// C(c,2); complexity O(Σ_v d_v²).
func VertexButterflies(g *graph.Graph) ([]int64, error) {
	if g.NumSelfLoops() > 0 {
		return nil, fmt.Errorf("count: graph has self loops; remove them first")
	}
	n := g.N()
	s := make([]int64, n)
	c := make([]int64, n)
	touched := make([]int, 0, 64)
	for u := 0; u < n; u++ {
		touched = touched[:0]
		for _, v := range g.Neighbors(u) {
			for _, w := range g.Neighbors(v) {
				if w == u {
					continue
				}
				if c[w] == 0 {
					touched = append(touched, w)
				}
				c[w]++
			}
		}
		var total int64
		for _, w := range touched {
			total += c[w] * (c[w] - 1) / 2
			c[w] = 0
		}
		s[u] = total
	}
	return s, nil
}

// VertexButterfliesParallel is VertexButterflies with source vertices
// partitioned across workers.  workers <= 0 selects GOMAXPROCS.
func VertexButterfliesParallel(g *graph.Graph, workers int) ([]int64, error) {
	return VertexButterfliesParallelContext(context.Background(), g, workers)
}

// VertexButterfliesParallelContext is VertexButterfliesParallel on the
// shared exec engine: workers pull disjoint source-vertex stripes, use
// pooled per-worker accumulators, and abort with ctx.Err() within
// countPollStride vertices of a cancellation.
func VertexButterfliesParallelContext(ctx context.Context, g *graph.Graph, workers int) ([]int64, error) {
	if g.NumSelfLoops() > 0 {
		return nil, fmt.Errorf("count: graph has self loops; remove them first")
	}
	n := g.N()
	if workers == 1 || n <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return VertexButterflies(g)
	}
	instr := obs.Enabled()
	ctx, spanDone := obs.Span(ctx, "count.vertex_butterflies")
	defer spanDone()
	s := make([]int64, n)
	err := exec.Ranges(ctx, n, workers, func(ctx context.Context, _, lo, hi int) error {
		if instr {
			defer mVertexSources.Add(int64(hi - lo))
		}
		poll := exec.NewPoller(ctx, countPollStride)
		c := exec.GetInt64s(n)
		defer exec.PutInt64s(c)
		touched := make([]int, 0, 64)
		for u := lo; u < hi; u++ {
			if poll.Cancelled() {
				return poll.Err()
			}
			touched = touched[:0]
			for _, v := range g.Neighbors(u) {
				for _, w := range g.Neighbors(v) {
					if w == u {
						continue
					}
					if c[w] == 0 {
						touched = append(touched, w)
					}
					c[w]++
				}
			}
			var total int64
			for _, w := range touched {
				total += c[w] * (c[w] - 1) / 2
				c[w] = 0
			}
			s[u] = total
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// VertexButterfliesAt counts the 4-cycles through a single vertex without
// touching the rest of the graph; used to spot-check individual vertices of
// products too large for a full pass.
func VertexButterfliesAt(g *graph.Graph, u int) int64 {
	c := map[int]int64{}
	for _, v := range g.Neighbors(u) {
		for _, w := range g.Neighbors(v) {
			if w != u {
				c[w]++
			}
		}
	}
	var total int64
	for _, cnt := range c {
		total += cnt * (cnt - 1) / 2
	}
	return total
}

// GlobalButterflies returns the total number of distinct 4-cycles in g.
// Each 4-cycle contains exactly four vertices, so the total is Σ s_v / 4.
func GlobalButterflies(g *graph.Graph) (int64, error) {
	s, err := VertexButterflies(g)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	if sum%4 != 0 {
		return 0, fmt.Errorf("count: vertex butterfly sum %d not divisible by 4", sum)
	}
	return sum / 4, nil
}

// EdgeButterflies returns the number of 4-cycles through each undirected
// edge (u,v) with u < v (the paper's ◊_A, Def. 9, stored once per edge).
// For each edge it enumerates u–x, v–y neighbor pairs via a marker array:
// ◊(u,v) = Σ_{y∈N(v)\{u}} ( |N(u) ∩ N(y)| − 1 ), the −1 removing v itself.
func EdgeButterflies(g *graph.Graph) (map[graph.Edge]int64, error) {
	if g.NumSelfLoops() > 0 {
		return nil, fmt.Errorf("count: graph has self loops; remove them first")
	}
	n := g.N()
	mark := make([]bool, n)
	out := make(map[graph.Edge]int64, g.NumEdges())
	for u := 0; u < n; u++ {
		for _, x := range g.Neighbors(u) {
			mark[x] = true
		}
		for _, v := range g.Neighbors(u) {
			if v < u {
				continue // handle each undirected edge once, from its low end
			}
			var cnt int64
			for _, y := range g.Neighbors(v) {
				if y == u {
					continue
				}
				// |N(u) ∩ N(y)| − 1 (v is always a common neighbor).
				var common int64
				for _, x := range g.Neighbors(y) {
					if mark[x] {
						common++
					}
				}
				cnt += common - 1
			}
			out[graph.Edge{U: u, V: v}] = cnt
		}
		for _, x := range g.Neighbors(u) {
			mark[x] = false
		}
	}
	return out, nil
}

// EdgeButterfliesAt counts 4-cycles through a single edge; returns an error
// if (u,v) is not an edge.
func EdgeButterfliesAt(g *graph.Graph, u, v int) (int64, error) {
	if !g.HasEdge(u, v) {
		return 0, fmt.Errorf("count: (%d,%d) is not an edge", u, v)
	}
	mark := map[int]bool{}
	for _, x := range g.Neighbors(u) {
		mark[x] = true
	}
	var cnt int64
	for _, y := range g.Neighbors(v) {
		if y == u {
			continue
		}
		var common int64
		for _, x := range g.Neighbors(y) {
			if mark[x] {
				common++
			}
		}
		cnt += common - 1
	}
	return cnt, nil
}
