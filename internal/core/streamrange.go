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
	"kronbip/internal/graph"
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

// EachEdgeBlockRangeRunContext streams edges [lo, hi) of block
// (row, col)'s canonical-restricted order (block-local offsets, as
// EachEdgeBlockRangeBatchContext takes them) as runs: each prefix pair's
// stretch of the window, in order, as one Run of its stripe's digits,
// so nothing is materialized per edge.  A walk resolves one stripe per
// term it enters, and every Run of that term points at it; a consumer
// can resolve what it needs of a stripe once per walk.  Unpriced, a
// term's stripe fuses the term's tail levels, or in the last term
// consecutive rows, into runs up to exec.BatchLen digits long or longer
// (see walk.go); priced, it is the last factor's edges in the window's
// column stripe, in one orientation or both.  Runs are cut where a cut
// first or last prefix pair ends and, under a cancellable context,
// wherever the walk has delivered another exec.BatchLen edges.
// Iteration stops early if yield returns false.  A stripe lives in
// scratch the walk reuses once it returns: a consumer must not keep a
// stripe, or key a cache by one, past the walk that delivered it.
//
// With a non-nil fourSum the same pass prices the window as
// PriceBlockRangeContext does and adds its Σ◊ to *fourSum; a walk that
// yield or a cancellation stopped adds what it had priced so far.
//
// Cancellation contract: that of EachEdgeBlockRangeBatchContext, per
// exec.BatchLen delivered edges instead of per batch: the context is
// checked before each of them is delivered, no run is yielded after a
// cancellation is observed, and the walk then returns ctx.Err(); at
// most exec.BatchLen edges are delivered past the cancellation point.
// A priced walk also checks it every 1024 prefix pairs.  A
// non-cancellable context skips every check.
func (p *Product) EachEdgeBlockRangeRunContext(ctx context.Context, row, nrows, col, ncols int, lo, hi int64, fourSum *int64, yield func(r Run) bool) error {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err == nil {
		win, err = win.sub(lo, hi)
	}
	if err != nil {
		return err
	}
	if fourSum == nil {
		return p.walkRuns(ctx, win, nil, yield)
	}
	f := &fourWalk{}
	err = p.walkRuns(ctx, win, f, yield)
	*fourSum += f.sum
	return err
}

// Run is one prefix pair's stretch of a run walk: the edges
// (V+x, W+y) for the oriented stripe edges (x, y) of digits [Lo, Hi),
// in order.  V and W are the prefix pair's vertex offsets in the
// product.  Run and its Stripe are valid only during the yield that
// delivers them and the rest of that walk.
type Run struct {
	V, W   int
	Stripe *Stripe
	Lo, Hi int
}

// Stripe is what a run walk expands under each prefix pair of a term: a
// list of oriented edges (x, y), digit d being Edges[d] with x in U and
// y in V.  A walk resolves each term's stripe into scratch it reuses
// after it returns, so a consumer must not keep a stripe, or key a
// cache by one, past the walk that delivered it.
type Stripe struct {
	Edges []graph.Edge
}

// Len is the stripe's digit count.
func (s *Stripe) Len() int { return len(s.Edges) }

// Edge is digit d's oriented edge (x, y).
func (s *Stripe) Edge(d int) (x, y int) {
	e := s.Edges[d]
	return e.U, e.V
}

// PriceBlockRangeContext prices edges [lo, hi) of block (row, col)'s
// canonical-restricted order (block-local offsets, as
// EachEdgeBlockRangeBatchContext takes them): it returns their Σ◊, the
// sum of their 4-cycle counts (EdgeFourCyclesAt), in time proportional
// to the window's prefix pairs, not its edges, and emits nothing.
// Within a prefix pair the Thm. 5 anchor terms are constant, so a whole
// pair's Σ◊ is one closed form over the last factor's stripe sums; only
// a cut first or last pair is priced edge by edge.
//
// The context is checked every 1024 prefix pairs, and a cancelled walk
// returns ctx.Err() with the sum of the prefix pairs it had priced.  A
// resumed distgen lease prices its skipped prefix through it, and an
// audit's theorem.four_dual prices the whole product;
// EachEdgeBlockRangeRunContext prices a window in the pass that streams
// it.
func (p *Product) PriceBlockRangeContext(ctx context.Context, row, nrows, col, ncols int, lo, hi int64) (int64, error) {
	win, err := p.blockWindow(row, nrows, col, ncols)
	if err == nil {
		win, err = win.sub(lo, hi)
	}
	if err != nil {
		return 0, err
	}
	return p.walkPriced(ctx, win)
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
