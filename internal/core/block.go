package core

import (
	"context"
	"fmt"

	"kronbip/internal/exec"
)

// 2D-blocked edge streaming — the distributed-generation partition.
//
// The 1D shard vocabulary (EachEdgeShard*, ShardEdgeCount) stripes the
// stream's row space; blocks refine it with a second, orthogonal
// dimension: the edge list of the LAST chain factor B_K.  Every product
// edge terminates in exactly one B_K edge (the base case of the chain
// expansion walks E_{B_K} in order, emitting one or two product edges
// per B_K edge), so
//
//	block (r, c) of R×C  =  { edges whose stream row ∈ rowStripe(r, R)
//	                          and whose B_K edge index ∈ colStripe(c, C) }
//
// partitions the edge set into R·C deterministic, disjoint blocks whose
// union is exactly the EachEdge stream.  Each block's edge count has the
// same O(K) closed form as ShardEdgeCount: every row of term t emits
// termPer[t]/|E_{B_K}| product edges per B_K edge — an exact integer by
// construction, since every term's multiplicity carries a trailing
// |E_{B_K}| factor — so a coordinator can size, balance, and verify
// block leases without generating anything (internal/distgen).
//
// Block (0, 0) of 1×1 is the whole product in canonical order.  For
// C > 1 the within-block order is the canonical order restricted to the
// block; concatenating blocks in (row, col)-major block order is a
// deterministic permutation of the canonical stream, reproduced
// identically by every replica.

// blockWindow validates (row, nrows, col, ncols) and returns the
// block's window: the row stripe of shard (row, nrows) × the col-th
// stripe of the last factor's edge list.  Column stripes come from
// exec.Stripe over |E_{B_K}|, so ncols may exceed the edge count — the
// surplus stripes are empty, never an error.
func (p *Product) blockWindow(row, nrows, col, ncols int) (window, error) {
	rlo, rhi, err := p.shardRange(row, nrows)
	if err != nil {
		return window{}, err
	}
	if ncols <= 0 {
		return window{}, fmt.Errorf("core: ncols must be positive, got %d", ncols)
	}
	if col < 0 || col >= ncols {
		return window{}, fmt.Errorf("core: col %d out of range [0,%d)", col, ncols)
	}
	clo, chi := exec.Stripe(col, ncols, p.lastEdges())
	return p.region(rlo, rhi, clo, chi), nil
}

// BlockEdgeCount returns the number of edges block (row, col) of an
// nrows×ncols blocking will emit, without streaming — O(K) closed form:
// Σ_t rowOverlap(t)·(termPer[t]/|E_{B_K}|)·colSpan.  The division is
// exact (every term's per-row multiplicity is a multiple of |E_{B_K}|),
// and the arithmetic cannot wrap because termPer was overflow-checked
// against |E_C| at construction.
func (p *Product) BlockEdgeCount(row, nrows, col, ncols int) (int64, error) {
	win, err := p.blockWindow(row, nrows, col, ncols)
	return win.hi, err
}

// EachEdgeBlock streams block (row, col) of an nrows×ncols blocking in
// canonical-restricted order.  The union over all R·C blocks is exactly
// the EachEdge stream; no edge repeats across blocks.  Iteration stops
// early if yield returns false.
func (p *Product) EachEdgeBlock(row, nrows, col, ncols int, yield func(v, w int) bool) error {
	return p.EachEdgeBlockContext(context.Background(), row, nrows, col, ncols, yield)
}

// EachEdgeBlockContext is EachEdgeBlock under a context, with the same
// cancellation contract as EachEdgeShardContext: checked every
// streamPollStride emitted edges, the stream stops without invoking
// yield again and returns ctx.Err(), and no edge is ever emitted twice.
func (p *Product) EachEdgeBlockContext(ctx context.Context, row, nrows, col, ncols int, yield func(v, w int) bool) error {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err != nil {
		return err
	}
	return p.walkEdges(ctx, win, yield)
}
