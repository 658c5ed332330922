// Resumable range streaming over the canonical edge order.
//
// Generation is deterministic, so the edge at any global stream offset
// is derivable from the factor state alone: the term layout gives the
// row in O(K) (the same termOff/termPer prefix math BlockEdgeCount
// uses), and the within-row offset decomposes into the mixed-radix
// digit tuple of the chain expansion — level u contributes a
// factor-edge index and (where both orientations are emitted) an
// orientation bit, with the last level least significant.  A range walk
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

// EachEdgeBlockRangeBatchContext streams edges [lo, hi) of block
// (row, col)'s canonical-restricted order (block-local offsets; the
// block's total is BlockEdgeCount) in pooled batches of up to
// exec.BatchLen edges, the final one partial.  The yielded slice is
// reused between calls, and iteration stops early if yield returns
// false.  A range walk costs what a full stream costs per edge: only
// its first and last prefix pair are partial.
//
// Cancellation contract: the context is checked before every batch is
// delivered, so no batch is yielded after a cancellation is observed
// and the walk then returns ctx.Err(); at most one batch of edges is
// generated and discarded past the cancellation point.  An edge is
// never delivered twice.  A non-cancellable context skips the check.
func (p *Product) EachEdgeBlockRangeBatchContext(ctx context.Context, row, nrows, col, ncols int, lo, hi int64, yield func(batch []exec.Edge) bool) error {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err == nil {
		win, err = win.sub(lo, hi)
	}
	if err != nil {
		return err
	}
	return p.walkBatch(ctx, win, yield)
}

// EachEdgeFourCycleBlockRangeBatchContext is EachEdgeBlockRangeBatchContext
// with ground truth: each batch comes with a parallel slice of its edges'
// 4-cycle counts ◊ (EdgeFourCyclesAt), folded into the walk by Thm. 5 at
// a few nanoseconds per edge.  Both slices are reused between calls;
// the edges, their order and the cancellation contract are the plain
// walk's.  A distgen lease walks its block through it to report the
// block's Σ◊.
func (p *Product) EachEdgeFourCycleBlockRangeBatchContext(ctx context.Context, row, nrows, col, ncols int, lo, hi int64, yield func(batch []exec.Edge, sq []int64) bool) error {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err == nil {
		win, err = win.sub(lo, hi)
	}
	if err != nil {
		return err
	}
	return p.walkFour(ctx, win, yield)
}

// EachEdgeRangeBatchContext streams edges [lo, hi) of the canonical
// EachEdge order: EachEdgeBlockRangeBatchContext on the 1×1 blocking,
// an O(K) closed-form seek to lo, then exactly hi-lo edges — no prefix
// work, no spooling.
func (p *Product) EachEdgeRangeBatchContext(ctx context.Context, lo, hi int64, yield func(batch []exec.Edge) bool) error {
	return p.EachEdgeBlockRangeBatchContext(ctx, 0, 1, 0, 1, lo, hi, yield)
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
