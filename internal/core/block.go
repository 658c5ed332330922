package core

import (
	"context"
	"fmt"

	"kronbip/internal/exec"
)

// 2D-blocked edge streaming — the one partition of the canonical order.
//
// Blocks cut the stream's row space into stripes and refine them with a
// second, orthogonal dimension: the edge list of the LAST chain factor
// B_K.  Every product edge terminates in exactly one B_K edge (the base
// case of the chain expansion walks E_{B_K} in order, emitting one or
// two product edges per B_K edge), so
//
//	block (r, c) of R×C  =  { edges whose stream row ∈ rowStripe(r, R)
//	                          and whose B_K edge index ∈ colStripe(c, C) }
//
// partitions the edge set into R·C deterministic, disjoint blocks whose
// union is exactly the EachEdge stream.  A shard of the parallel stream
// (stream.go) is a one-column block: shard s of n is block (s, 0) of
// n×1.  Each block's edge count has an O(K) closed form: every row of
// term t emits termPer[t]/|E_{B_K}| product edges per B_K edge — an
// exact integer by construction, since every term's multiplicity
// carries a trailing |E_{B_K}| factor — so a coordinator can size,
// balance, and verify block leases without generating anything
// (internal/distgen).
//
// Block (0, 0) of 1×1 is the whole product in canonical order.  For
// C > 1 the within-block order is the canonical order restricted to the
// block; concatenating blocks in (row, col)-major block order is a
// deterministic permutation of the canonical stream, reproduced
// identically by every replica.

// blockWindow validates (row, nrows, col, ncols) and returns the
// block's window: the row-th stripe of the stream rows × the col-th
// stripe of the last factor's edge list.  Stripes come from exec.Stripe,
// which never forms row·numRows, so huge factor edge counts with many
// blocks cannot overflow, and nrows or ncols may exceed the extent —
// the surplus stripes are empty, never an error.
func (p *Product) blockWindow(row, nrows, col, ncols int) (window, error) {
	if nrows <= 0 {
		return window{}, fmt.Errorf("core: nrows must be positive, got %d", nrows)
	}
	if row < 0 || row >= nrows {
		return window{}, fmt.Errorf("core: row %d out of range [0,%d)", row, nrows)
	}
	if ncols <= 0 {
		return window{}, fmt.Errorf("core: ncols must be positive, got %d", ncols)
	}
	if col < 0 || col >= ncols {
		return window{}, fmt.Errorf("core: col %d out of range [0,%d)", col, ncols)
	}
	rlo, rhi := exec.Stripe(row, nrows, p.numRows())
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

// EachEdgeBlockBatchContext streams block (row, col) of an nrows×ncols
// blocking in canonical-restricted order, as batches of up to
// exec.BatchLen edges.  The union over all R·C blocks is exactly the
// EachEdge stream; no edge repeats across blocks.  It is
// EachEdgeBlockRangeBatchContext over the whole block, under the same
// batch cancellation contract.
func (p *Product) EachEdgeBlockBatchContext(ctx context.Context, row, nrows, col, ncols int, yield func(batch []exec.Edge) bool) error {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err != nil {
		return err
	}
	return p.walkBatch(ctx, win, yield)
}
