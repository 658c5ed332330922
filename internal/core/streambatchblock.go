// Batched 2D-blocked streaming: the batch twin of block.go's per-edge
// walkers, so block leases (internal/serve's POST /v1/leases) ride the
// same whole-batch hot loop the sharded stream does — one sink dispatch
// per pooled buffer instead of one per edge.
package core

import (
	"context"

	"kronbip/internal/exec"
)

// EachEdgeBlockBatch streams block (row, col) of an nrows×ncols
// blocking as batches of up to exec.BatchLen edges, in the same
// canonical-restricted order as EachEdgeBlock.  The yielded slice is
// reused between calls.  Iteration stops early if yield returns false.
func (p *Product) EachEdgeBlockBatch(row, nrows, col, ncols int, yield func(batch []exec.Edge) bool) error {
	return p.EachEdgeBlockBatchContext(context.Background(), row, nrows, col, ncols, yield)
}

// EachEdgeBlockBatchContext is EachEdgeBlockBatch under a context,
// with the batch cancellation contract of EachEdgeShardBatchContext:
// checked before each batch is delivered, no batch is yielded after a
// cancellation is observed, and no edge is ever delivered twice.
func (p *Product) EachEdgeBlockBatchContext(ctx context.Context, row, nrows, col, ncols int, yield func(batch []exec.Edge) bool) error {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err != nil {
		return err
	}
	return p.walkBatch(ctx, win, yield)
}
