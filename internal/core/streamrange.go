// Resumable range streaming over the canonical edge order.
//
// Generation is deterministic, so the edge at any global stream offset
// is derivable from the factor state alone: the term layout gives the
// row in O(K) (the same termOff/termPer prefix math ShardEdgeCount and
// BlockEdgeCount use), and the within-row offset decomposes into the
// mixed-radix digit tuple of the chain expansion — level u contributes
// a factor-edge index and (where both orientations are emitted) an
// orientation bit, with the last level least significant.  EachEdgeRange
// therefore seeks to [lo, hi) in O(K) and re-generates exactly hi-lo
// edges: a dropped consumer resumes mid-stream with zero re-generation
// of the prefix (serve's ?offset=/?limit= and distgen's lease resume).
// The seek and the walk are the kernel's (walk.go); a range is just a
// narrowed window.
package core

import (
	"context"

	"kronbip/internal/exec"
)

// blockRangeWindow is blockWindow narrowed to block-local offsets
// [lo, hi).
func (p *Product) blockRangeWindow(row, nrows, col, ncols int, lo, hi int64) (window, error) {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err != nil {
		return window{}, err
	}
	return win.sub(lo, hi)
}

// EachEdgeRange streams edges [lo, hi) of the canonical EachEdge order:
// an O(K) closed-form seek to lo, then exactly hi-lo edges re-generated
// — no prefix work, no spooling.  Iteration stops early if yield
// returns false.
func (p *Product) EachEdgeRange(lo, hi int64, yield func(v, w int) bool) error {
	return p.EachEdgeRangeContext(context.Background(), lo, hi, yield)
}

// EachEdgeRangeContext is EachEdgeRange under a context, with the same
// cancellation contract as EachEdgeShardContext: checked every
// streamPollStride emitted edges, the stream stops without invoking
// yield again and returns ctx.Err().
func (p *Product) EachEdgeRangeContext(ctx context.Context, lo, hi int64, yield func(v, w int) bool) error {
	win, err := p.whole().sub(lo, hi)
	if err != nil {
		return err
	}
	return p.walkEdges(ctx, win, yield)
}

// EachEdgeRangeBatchContext is EachEdgeRangeContext with batch
// delivery: edges arrive in pooled slices of up to exec.BatchLen, the
// final one partial.  The yielded slice is reused between calls.  A
// range walk costs what a full stream costs per edge: only its first
// and last prefix pair are partial.  The cancellation contract is the
// batch one (EachEdgeShardBatchContext): checked before each batch, no
// batch yielded after a cancellation is observed.
func (p *Product) EachEdgeRangeBatchContext(ctx context.Context, lo, hi int64, yield func(batch []exec.Edge) bool) error {
	win, err := p.whole().sub(lo, hi)
	if err != nil {
		return err
	}
	return p.walkBatch(ctx, win, yield)
}

// EachEdgeBlockRange streams edges [lo, hi) of block (row, col)'s
// canonical-restricted order (block-local offsets; the block's total is
// BlockEdgeCount).  The same O(K) seek as EachEdgeRange, restricted to
// the block's rows and column stripe.
func (p *Product) EachEdgeBlockRange(row, nrows, col, ncols int, lo, hi int64, yield func(v, w int) bool) error {
	return p.EachEdgeBlockRangeContext(context.Background(), row, nrows, col, ncols, lo, hi, yield)
}

// EachEdgeBlockRangeContext is EachEdgeBlockRange under a context; see
// EachEdgeRangeContext for the cancellation contract.
func (p *Product) EachEdgeBlockRangeContext(ctx context.Context, row, nrows, col, ncols int, lo, hi int64, yield func(v, w int) bool) error {
	win, err := p.blockRangeWindow(row, nrows, col, ncols, lo, hi)
	if err != nil {
		return err
	}
	return p.walkEdges(ctx, win, yield)
}

// EachEdgeBlockRangeBatchContext is EachEdgeBlockRangeContext with
// batch delivery (pooled slices of up to exec.BatchLen, reused between
// calls) under the batch cancellation contract.
func (p *Product) EachEdgeBlockRangeBatchContext(ctx context.Context, row, nrows, col, ncols int, lo, hi int64, yield func(batch []exec.Edge) bool) error {
	win, err := p.blockRangeWindow(row, nrows, col, ncols, lo, hi)
	if err != nil {
		return err
	}
	return p.walkBatch(ctx, win, yield)
}

// TermEdgeStarts returns the ascending global edge offsets at which
// each (non-empty) term's rows begin, with NumEdges() appended — the
// hard-cut schedule for the binary wire format's frame alignment: a
// frame never spans a term boundary, so resuming at any term start (or
// any aligned frame boundary within a term) reproduces the canonical
// framing byte for byte.
func (p *Product) TermEdgeStarts() []int64 {
	return p.termStarts(p.whole())
}

// BlockTermEdgeStarts is TermEdgeStarts in block-local offsets: the
// term-start offsets of block (row, col)'s canonical-restricted order,
// with the block's BlockEdgeCount appended.
func (p *Product) BlockTermEdgeStarts(row, nrows, col, ncols int) ([]int64, error) {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err != nil {
		return nil, err
	}
	return p.termStarts(win), nil
}
