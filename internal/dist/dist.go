// Package dist simulates the paper's §V future work — "implement this
// style of generator in a distributed version of GraphBLAS, including
// using the ground truth formulas derived here to compute ground truth
// values during generation" — as an in-process cluster of rank workers
// communicating only by channels (share memory by communicating).
//
// The product's vertex space [0, n_A·n_B) is 1D block-partitioned across
// ranks.  Each rank independently:
//
//  1. receives the (small) factors from the coordinator,
//  2. generates its local slice of product edges {v,w} with owner(v) = rank
//     (each undirected edge is owned by its lower-ID endpoint's rank),
//  3. computes the ground-truth degree, 4-cycle and edge-4-cycle values for
//     its slice *during generation* from factor statistics alone, and
//  4. streams a summary back for a tree-free (coordinator) reduction.
//
// Nothing global is ever materialized; the coordinator ends up with the
// exact global edge and 4-cycle counts plus per-rank tallies, which the
// tests cross-validate against package core and brute force.
package dist

import (
	"context"
	"fmt"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
)

// Cluster metrics: one flush per completed run (never per edge), so the
// enabled overhead is a few atomic adds after the reduction.
var (
	mDistRuns  = obs.Default.Counter("dist.generate.runs")
	mDistRanks = obs.Default.Counter("dist.generate.ranks")
	mDistEdges = obs.Default.Counter("dist.generate.edges")
)

// Shard is one rank's generation result summary.
type Shard struct {
	Rank      int
	VertexLo  int   // owned vertex range [VertexLo, VertexHi)
	VertexHi  int   //
	Edges     int64 // undirected edges owned by this rank
	SumDegree int64 // Σ d_v over owned vertices
	SumVertex int64 // Σ s_v over owned vertices (4·□ when summed globally)
	SumEdgeSq int64 // Σ ◊_e over owned edges
	MaxVertex int64 // max s_v over owned vertices
}

// Result is the coordinator's reduction of all shards.
type Result struct {
	Ranks         int
	Shards        []Shard
	TotalEdges    int64
	GlobalFour    int64 // from Σ s_v / 4
	GlobalFourE   int64 // from Σ ◊_e / 4 (independent route; must agree)
	TotalDegree   int64
	MaxVertexFour int64
}

// Generate runs the simulated cluster; see GenerateContext.
func Generate(p *core.Product, ranks int) (*Result, error) {
	return GenerateContext(context.Background(), p, ranks)
}

// GenerateContext runs the simulated cluster on the shared exec engine.
// Each rank runs as a cancellable shard on the bounded worker pool; the
// only shared state is the Product descriptor (immutable) and the
// rank-indexed shard slice each worker writes exactly once.  Cancelling
// ctx aborts every in-flight rank promptly and returns ctx.Err().
func GenerateContext(ctx context.Context, p *core.Product, ranks int) (*Result, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("dist: ranks must be positive, got %d", ranks)
	}
	n := p.N()
	if ranks > n {
		ranks = n
	}
	instr := obs.Enabled()
	if instr {
		var done func()
		ctx, done = obs.Span(ctx, "dist.generate")
		defer done()
	}
	// One timeline read for the whole run: each rank then records one
	// begin/end event, so a straggling or cancelled rank is visible as a
	// long or not-OK "dist.generate" lane in the trace.
	tl := timeline.Enabled()
	shards := make([]Shard, ranks)
	err := exec.Sharded(ctx, ranks, func(ctx context.Context, rank int) error {
		var end timeline.Done
		if tl {
			end = timeline.Begin(timeline.CatRank, "dist.generate", rank)
		}
		shard, err := generateRank(ctx, p, rank, ranks)
		if end != nil {
			end(err)
		}
		if err != nil {
			return err
		}
		shards[rank] = shard
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Ranks: ranks, Shards: shards}
	for _, s := range res.Shards {
		res.TotalEdges += s.Edges
		res.TotalDegree += s.SumDegree
		res.GlobalFour += s.SumVertex
		res.GlobalFourE += s.SumEdgeSq
		if s.MaxVertex > res.MaxVertexFour {
			res.MaxVertexFour = s.MaxVertex
		}
	}
	if res.GlobalFour%4 != 0 || res.GlobalFourE%4 != 0 {
		return nil, fmt.Errorf("dist: reduction sums not divisible by 4 (%d, %d)", res.GlobalFour, res.GlobalFourE)
	}
	res.GlobalFour /= 4
	res.GlobalFourE /= 4
	if instr {
		mDistRuns.Inc()
		mDistRanks.Add(int64(ranks))
		mDistEdges.Add(res.TotalEdges)
	}
	return res, nil
}

// generateRank is one worker: owned vertex range plus owned-edge streaming
// with ground truth computed inline.
func generateRank(ctx context.Context, p *core.Product, rank, ranks int) (Shard, error) {
	n := p.N()
	lo, hi := exec.Stripe(rank, ranks, n)
	s := Shard{Rank: rank, VertexLo: lo, VertexHi: hi}

	// Vertex-side ground truth for the owned range, straight from factor
	// statistics (no communication).
	poll := exec.NewPoller(ctx, 4096)
	for v := lo; v < hi; v++ {
		if poll.Cancelled() {
			return Shard{}, poll.Err()
		}
		s.SumDegree += p.DegreeAt(v)
		sv := p.VertexFourCyclesAt(v)
		s.SumVertex += sv
		if sv > s.MaxVertex {
			s.MaxVertex = sv
		}
	}

	// Edge generation: stream every product edge in batches, keep those
	// owned here (owner = rank of the lower endpoint), and evaluate ◊
	// inline.  The batch path means each rank pays stream dispatch once
	// per exec.BatchLen edges while scanning for its slice.  A real
	// distributed generator would enumerate only local factor-edge pairs;
	// the ownership rule makes the partition exact either way, and the
	// cost model (each rank scans the factor pair space) matches the
	// paper's O(|E_C|^{1/2})-memory workers.
	var streamErr error
	err := p.EachEdgeRangeBatchContext(ctx, 0, p.NumEdges(), func(batch []exec.Edge) bool {
		for _, e := range batch {
			low := e.V
			if e.W < low {
				low = e.W
			}
			if low < lo || low >= hi {
				continue
			}
			sq, err := p.EdgeFourCyclesAt(e.V, e.W)
			if err != nil {
				streamErr = err
				return false
			}
			s.Edges++
			s.SumEdgeSq += sq
		}
		return true
	})
	if err != nil {
		return Shard{}, err
	}
	if streamErr != nil {
		return Shard{}, streamErr
	}
	return s, nil
}
