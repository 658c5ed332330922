// The edge-walk kernel.  Every stream this package offers — the whole
// product, a shard, a 2D block, and a resumable range of either — is
// one question: "edges [lo, hi) of rows [rlo, rhi) × last-factor stripe
// [clo, chi)" of the canonical order.  A window names those arguments;
// one kernel answers them all, and the public walkers differ only in
// how they build the window and deliver its edges.
//
// A walk resolves its factor state once: each level's edge slice (the
// last one cut to the stripe) and digit radix, and the window's term
// layout.  Nothing is cached on the Product between walks.  The kernel
// then seeks to lo in O(K) — every row of term t emits the same number
// of window edges — decodes the within-row offset into per-level
// digits, and runs an odometer over the inner levels.  Each odometer
// position is one prefix pair (pv, pw) whose last-factor expansion is
// the closure-free append loop; for K = 1 there are no inner levels and
// that loop is the historical two-factor row loop.  Only the walk's
// first and last prefix pair can be partial.
package core

import (
	"context"
	"fmt"

	"kronbip/internal/exec"
	"kronbip/internal/graph"
)

// window is one walk's extent: stream rows [rlo, rhi) × last-factor
// edges [clo, chi), and the offsets [lo, hi) into that region's
// canonical-restricted order.
type window struct {
	rlo, rhi, clo, chi int
	lo, hi             int64
}

// region returns the window covering every edge of rows [rlo, rhi) ×
// last-factor edges [clo, chi).
func (p *Product) region(rlo, rhi, clo, chi int) window {
	win := window{rlo: rlo, rhi: rhi, clo: clo, chi: chi}
	for t := 0; t < len(p.termOff)-1; t++ {
		if rows := p.termRows(win, t); rows > 0 {
			win.hi += int64(rows) * p.rowEdges(win, t)
		}
	}
	return win
}

// whole is the window of the full canonical order.
func (p *Product) whole() window {
	return window{rhi: p.numRows(), chi: p.lastEdges(), hi: p.nEdges}
}

// sub narrows win to offsets [lo, hi) of its own order, rejecting a
// range outside it.
func (win window) sub(lo, hi int64) (window, error) {
	if n := win.hi - win.lo; lo < 0 || hi < lo || hi > n {
		return window{}, fmt.Errorf("core: edge range [%d,%d) out of bounds [0,%d)", lo, hi, n)
	}
	win.lo, win.hi = win.lo+lo, win.lo+hi
	return win, nil
}

// lastEdges is |E_{B_K}|, the column dimension's extent.
func (p *Product) lastEdges() int { return p.mEdges[len(p.mEdges)-1] }

// termRows is how many of term t's rows lie in the window (<= 0: none).
func (p *Product) termRows(win window, t int) int {
	return min(win.rhi, p.termOff[t+1]) - max(win.rlo, p.termOff[t])
}

// rowEdges is how many window edges each row of term t emits: the
// term's per-row multiplicity carries one |E_{B_K}| factor, of which
// the stripe keeps chi-clo.  The division is exact.
func (p *Product) rowEdges(win window, t int) int64 {
	m := int64(p.lastEdges())
	if m == 0 {
		return 0
	}
	return p.termPer[t] / m * int64(win.chi-win.clo)
}

// seek locates window offset k (relative to the region, not to win.lo):
// the term and row holding it and the offset within that row.  O(K).
func (p *Product) seek(win window, k int64) (t, row int, off int64) {
	for t := 0; t < len(p.termOff)-1; t++ {
		rows, per := int64(p.termRows(win, t)), p.rowEdges(win, t)
		if rows <= 0 || per == 0 {
			continue
		}
		if k < rows*per {
			return t, max(win.rlo, p.termOff[t]) + int(k/per), k % per
		}
		k -= rows * per
	}
	return len(p.termOff) - 2, win.rhi, 0
}

// termStarts returns the ascending window offsets at which each
// non-empty term's rows begin, with the window's edge count appended.
func (p *Product) termStarts(win window) []int64 {
	cuts := make([]int64, 0, len(p.termOff))
	var acc int64
	for t := 0; t < len(p.termOff)-1; t++ {
		if rows := p.termRows(win, t); rows > 0 {
			if n := int64(rows) * p.rowEdges(win, t); n > 0 {
				cuts = append(cuts, acc)
				acc += n
			}
		}
	}
	return append(cuts, acc)
}

// walker is one walk's factor state, resolved once per walk.  Slices
// are indexed by chain level: level 0 is A, level u >= 1 is B_u.  A
// batch walk appends to a buffer and hands full batches to emit; a
// per-edge walk (yield non-nil) hands every edge straight to yield.
type walker struct {
	p      *Product
	ea     []graph.Edge   // A's edges, the prefix pairs of term-0 rows
	eb     [][]graph.Edge // B_u's edges; the last level holds only the stripe
	dig    []int          // odometer digit of each level
	pv, pw []int          // prefix pair through each level
	emit   func(batch []exec.Edge) bool
	yield  func(v, w int) bool
}

// radix is level u's digit count in a term-t row: its edge count,
// doubled where both orientations are emitted (every level except a
// self-loop term's anchor).
func (w *walker) radix(u, t int) int {
	if t == 0 || u > t {
		return 2 * len(w.eb[u])
	}
	return len(w.eb[u])
}

// descend sets level u's prefix pair from level u-1's and the level's
// digit: edge d/2 in orientation d%2 where both are emitted, else edge d.
func (w *walker) descend(u, t int) {
	d, flip := w.dig[u], false
	if t == 0 || u > t {
		d, flip = d>>1, d&1 == 1
	}
	e := w.eb[u][d]
	x, y := e.U, e.V
	if flip {
		x, y = y, x
	}
	n := w.p.rad.sizes[u]
	w.pv[u], w.pw[u] = w.pv[u-1]*n+x, w.pw[u-1]*n+y
}

// run walks the window: a batch walk when yield is nil (buf empty with
// capacity >= 2; each full batch, then the final partial one, goes to
// emit), a per-edge walk otherwise.
func (p *Product) run(win window, buf []exec.Edge, emit func(batch []exec.Edge) bool, yield func(v, w int) bool) {
	remaining := win.hi - win.lo
	if remaining <= 0 {
		return
	}
	k := len(p.bs)
	t, row, off := p.seek(win, win.lo)
	ints := make([]int, 3*(k+1))
	w := &walker{p: p, emit: emit, yield: yield, eb: make([][]graph.Edge, k+1),
		dig: ints[:k+1], pv: ints[k+1 : 2*(k+1)], pw: ints[2*(k+1):]}
	if t == 0 {
		w.ea = p.a.G.Edges()
	}
	for u := max(t, 1); u <= k; u++ {
		w.eb[u] = p.bs[u-1].G.Edges()
	}
	w.eb[k] = w.eb[k][win.clo:win.chi]
	for u := k; u >= max(t, 1); u-- {
		r := int64(w.radix(u, t))
		w.dig[u], off = int(off%r), off/r
	}
	for ; remaining > 0; t++ {
		if p.rowEdges(win, t) > 0 {
			for end := min(win.rhi, p.termOff[t+1]); row < end && remaining > 0; row++ {
				var ok bool
				if buf, remaining, ok = w.row(t, row, buf, remaining); !ok {
					return
				}
			}
		}
		row = p.termOff[t+1]
	}
	if len(buf) > 0 {
		emit(buf)
	}
}

// row emits row r of term t from the odometer's current digits, at most
// remaining edges, leaving every digit zero for the next row.  It
// returns the buffer, the edges still owed, and false once the consumer
// stopped the walk.
func (w *walker) row(t, r int, buf []exec.Edge, remaining int64) ([]exec.Edge, int64, bool) {
	p := w.p
	k := len(p.bs)
	a := max(t, 1) // anchor level
	if t == 0 {
		w.pv[0], w.pw[0] = w.ea[r].U, w.ea[r].V
	} else {
		idx := r - p.termOff[t]
		w.pv[a-1], w.pw[a-1] = idx, idx
	}
	for u := a; u < k; u++ {
		w.descend(u, t)
	}
	n := p.rad.sizes[k]
	both := t == 0 || k > t
	per := int64(w.radix(k, t))
	for {
		av, aw := w.pv[k-1]*n, w.pw[k-1]*n
		s := int64(w.dig[k])
		c := min(per-s, remaining)
		remaining -= c
		ok := true
		switch {
		case c < per: // the walk's first or last prefix pair
			buf, ok = w.partial(buf, av, aw, s, s+c, both)
		case w.yield != nil:
			ok = w.yieldRun(av, aw, both)
		default:
			buf, ok = w.appendRun(buf, av, aw, both)
		}
		if !ok {
			return nil, 0, false
		}
		w.dig[k] = 0
		if remaining == 0 {
			return buf, 0, true
		}
		u := k - 1
		for ; u >= a; u-- {
			if w.dig[u]++; w.dig[u] < w.radix(u, t) {
				break
			}
			w.dig[u] = 0
		}
		if u < a {
			return buf, remaining, true
		}
		for ; u < k; u++ {
			w.descend(u, t)
		}
	}
}

// appendRun is the batch hot loop: the whole last-level expansion of
// prefix pair (av, aw) appended to buf, full batches flushed to emit.
func (w *walker) appendRun(buf []exec.Edge, av, aw int, both bool) ([]exec.Edge, bool) {
	last := w.eb[len(w.eb)-1]
	if both {
		for _, e := range last {
			buf = append(buf, exec.Edge{V: av + e.U, W: aw + e.V}, exec.Edge{V: av + e.V, W: aw + e.U})
			if cap(buf)-len(buf) < 2 {
				if !w.emit(buf) {
					return nil, false
				}
				buf = buf[:0]
			}
		}
		return buf, true
	}
	for _, e := range last {
		buf = append(buf, exec.Edge{V: av + e.U, W: aw + e.V})
		if cap(buf)-len(buf) < 2 {
			if !w.emit(buf) {
				return nil, false
			}
			buf = buf[:0]
		}
	}
	return buf, true
}

// yieldRun is appendRun for a per-edge walk.
func (w *walker) yieldRun(av, aw int, both bool) bool {
	last, yield := w.eb[len(w.eb)-1], w.yield
	if both {
		for _, e := range last {
			if !yield(av+e.U, aw+e.V) || !yield(av+e.V, aw+e.U) {
				return false
			}
		}
		return true
	}
	for _, e := range last {
		if !yield(av+e.U, aw+e.V) {
			return false
		}
	}
	return true
}

// partial emits last-level digits [s, e) of prefix pair (av, aw): the
// part of a prefix pair a walk's seek or limit cuts.  Only batch walks
// are cut: the per-edge walk (EachEdge) always covers whole prefix pairs.
func (w *walker) partial(buf []exec.Edge, av, aw int, s, e int64, both bool) ([]exec.Edge, bool) {
	last := w.eb[len(w.eb)-1]
	for d := s; d < e; d++ {
		i, flip := int(d), false
		if both {
			i, flip = int(d>>1), d&1 == 1
		}
		x, y := last[i].U, last[i].V
		if flip {
			x, y = y, x
		}
		buf = append(buf, exec.Edge{V: av + x, W: aw + y})
		if cap(buf)-len(buf) < 2 {
			if !w.emit(buf) {
				return nil, false
			}
			buf = buf[:0]
		}
	}
	return buf, true
}

// walkBatch delivers win in batches of up to exec.BatchLen edges under
// the batch cancellation contract: the context is checked before every
// batch, no batch is yielded after a cancellation is observed, and the
// walk then returns ctx.Err().  The yielded slice is reused between
// calls.  A non-cancellable context skips the check.
func (p *Product) walkBatch(ctx context.Context, win window, yield func(batch []exec.Edge) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	bufp := exec.GetEdgeBuf()
	defer exec.PutEdgeBuf(bufp)
	done := ctx.Done()
	if done == nil {
		p.run(win, (*bufp)[:0], yield, nil)
		return nil
	}
	cancelled := false
	p.run(win, (*bufp)[:0], func(batch []exec.Edge) bool {
		select {
		case <-done:
			cancelled = true
			return false
		default:
		}
		return yield(batch)
	}, nil)
	if cancelled {
		return ctx.Err()
	}
	return nil
}
