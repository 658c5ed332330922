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
//
// A ◊ walk runs the same odometer and also prices every edge with its
// 4-cycle count (Thm. 5).  Within one prefix pair the anchor terms of
// EdgeFourCyclesAt are constant, so the walk folds them once per prefix
// pair, level by level as the odometer descends, and resolves the last
// factor's stripe once per walk; each edge's ◊ is then three multiplies
// in its own leaf loop.
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
// walk delivers through exactly one of emit, yield and four: a batch
// walk appends to a buffer and hands full batches to emit, a per-edge
// walk hands every edge straight to yield, and a ◊ walk hands batches
// with their edges' ◊ to four.emit.
type walker struct {
	p      *Product
	ea     []graph.Edge   // A's edges, the prefix pairs of term-0 rows
	eb     [][]graph.Edge // B_u's edges; the last level holds only the stripe
	dig    []int          // odometer digit of each level
	pv, pw []int          // prefix pair through each level
	emit   func(batch []exec.Edge) bool
	yield  func(v, w int) bool
	four   *fourWalk
}

// fourWalk is a ◊ walk's state.  at[u] holds the Thm. 5 anchor terms
// entering level u for the odometer's current prefix pair; last holds
// the last factor's terms for each stripe edge, resolved once per walk.
// An edge (x, y) of stripe edge i under the last level's anchor s has
//
//	◊ = s.m3·last[i].w3 + 1 − s.mv·d_x − s.mw·d_y,
//
// d_x and d_y being last[i].du and last[i].dv, swapped when the edge is
// the flipped orientation (V, U).
type fourWalk struct {
	at   []anchor
	last []fourEdge
	sq   []int64 // ◊ of each buffered edge, at its batch index
	emit func(batch []exec.Edge, sq []int64) bool
}

// anchor is the state EdgeFourCyclesAt carries into a level: m3 is the
// (M³∘M) entry of the prefix pair through the level above, and mv, mw
// are the pair's two M-degrees.  M is that level's left operand: the
// prefix plus I, or A itself at a mode-(i) A edge.
type anchor struct{ m3, mv, mw int64 }

// fourEdge is a last-factor edge {U, V}'s part of Thm. 5: the 3-walk
// count walk3(U, V) and the endpoint degrees d_U, d_V.
type fourEdge struct{ w3, du, dv int64 }

// radix is level u's digit count in a term-t row: its edge count,
// doubled where both orientations are emitted (every level except a
// self-loop term's anchor).
func (w *walker) radix(u, t int) int {
	if t == 0 || u > t {
		return 2 * len(w.eb[u])
	}
	return len(w.eb[u])
}

// edge is level u's factor edge under its digit, oriented: edge d/2 in
// orientation d%2 where both are emitted, else edge d.
func (w *walker) edge(u, t int) (x, y int) {
	d, flip := w.dig[u], false
	if t == 0 || u > t {
		d, flip = d>>1, d&1 == 1
	}
	e := w.eb[u][d]
	if flip {
		return e.V, e.U
	}
	return e.U, e.V
}

// descend sets level u's prefix pair from level u-1's and the level's
// oriented edge.
func (w *walker) descend(u, t int) {
	x, y := w.edge(u, t)
	n := w.p.rad.sizes[u]
	w.pv[u], w.pw[u] = w.pv[u-1]*n+x, w.pw[u-1]*n+y
}

// run walks the window through the sink w names (see walker).  A batch
// or ◊ walk starts from buf empty with capacity >= 2; each full batch,
// then the final partial one, is delivered.
func (p *Product) run(win window, buf []exec.Edge, w walker) {
	remaining := win.hi - win.lo
	if remaining <= 0 {
		return
	}
	k := len(p.bs)
	t, row, off := p.seek(win, win.lo)
	ints := make([]int, 3*(k+1))
	w.p, w.eb = p, make([][]graph.Edge, k+1)
	w.dig, w.pv, w.pw = ints[:k+1], ints[k+1:2*(k+1)], ints[2*(k+1):]
	if t == 0 {
		w.ea = p.a.G.Edges()
	}
	for u := max(t, 1); u <= k; u++ {
		w.eb[u] = p.bs[u-1].G.Edges()
	}
	w.eb[k] = w.eb[k][win.clo:win.chi]
	if w.four != nil {
		w.four.resolve(p, w.eb[k], cap(buf))
	}
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
	switch {
	case len(buf) == 0:
	case w.four != nil:
		w.four.emit(buf, w.four.sq[:len(buf)])
	default:
		w.emit(buf)
	}
}

// resolve sets up a ◊ walk over the last-factor stripe: its per-edge
// terms and a ◊ buffer parallel to a batch buffer of capacity n.
func (f *fourWalk) resolve(p *Product, stripe []graph.Edge, n int) {
	b := p.bs[len(p.bs)-1]
	f.at = make([]anchor, len(p.bs)+1)
	f.last = make([]fourEdge, len(stripe))
	for i, e := range stripe {
		f.last[i] = fourEdge{w3: b.walk3(e.U, e.V), du: b.D[e.U], dv: b.D[e.V]}
	}
	f.sq = make([]int64, n)
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
	from := a - 1 // shallowest level whose ◊ anchor terms are stale; below a, the seed too
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
		case w.four != nil:
			w.fold(t, r, from)
			if c < per {
				buf, ok = w.partialFour(buf, av, aw, s, s+c, both)
			} else {
				buf, ok = w.appendFour(buf, av, aw, both)
			}
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
		for from = u; u < k; u++ {
			w.descend(u, t)
		}
	}
}

// fold brings a ◊ walk's anchor terms down to the last level after the
// odometer re-descended levels [from, k) of row r of term t; from below
// the anchor level a first seeds level a from the row.  Entering level
// u+1 through oriented edge (x, y) of B_u,
//
//	m3' = m3·walk3(x, y) + 3,   mv' = mv·d_x + 1,   mw' = mw·d_y + 1,
//
// which is EdgeFourCyclesAt's climb with the level's ◊ expanded.
func (w *walker) fold(t, r, from int) {
	p, at := w.p, w.four.at
	a := max(t, 1)
	if from < a {
		at[a] = w.seed(t, r)
		from = a
	}
	for u := from; u < len(p.bs); u++ {
		x, y := w.edge(u, t)
		f, s := p.bs[u-1], at[u]
		at[u+1] = anchor{m3: s.m3*f.walk3(x, y) + 3, mv: s.mv*f.D[x] + 1, mw: s.mw*f.D[y] + 1}
	}
}

// seed is the anchor terms entering row r's anchor level: from A's edge
// {i, j} for a term-0 row (walk3_A(i, j), d_i, d_j, each lifted by the
// +I in mode (ii)), else from the self-loop prefix x's chain degree d
// (3d+1, d+1, d+1).
func (w *walker) seed(t, r int) anchor {
	p := w.p
	if t > 0 { // prefix x = r - termOff[t] leads product vertex x·stride(t-1)
		d := p.levelDegree((r-p.termOff[t])*p.rad.strides[t-1], t-1)
		return anchor{m3: 3*d + 1, mv: d + 1, mw: d + 1}
	}
	e := w.ea[r]
	s := anchor{m3: p.a.walk3(e.U, e.V), mv: p.a.D[e.U], mw: p.a.D[e.V]}
	if p.mode == ModeSelfLoopFactor {
		s.m3, s.mv, s.mw = s.m3+3, s.mv+1, s.mw+1
	}
	return s
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

// appendFour is appendRun for a ◊ walk: each edge's ◊ goes into sq at
// the edge's batch index, and full batches go to four.emit with it.
func (w *walker) appendFour(buf []exec.Edge, av, aw int, both bool) ([]exec.Edge, bool) {
	f := w.four
	last, sq, s := w.eb[len(w.eb)-1], f.sq, f.at[len(f.at)-1]
	if both {
		for i, e := range last {
			le := f.last[i]
			b, n := s.m3*le.w3+1, len(buf)
			sq[n], sq[n+1] = b-s.mv*le.du-s.mw*le.dv, b-s.mv*le.dv-s.mw*le.du
			buf = append(buf, exec.Edge{V: av + e.U, W: aw + e.V}, exec.Edge{V: av + e.V, W: aw + e.U})
			if cap(buf)-len(buf) < 2 {
				if !f.emit(buf, sq[:len(buf)]) {
					return nil, false
				}
				buf = buf[:0]
			}
		}
		return buf, true
	}
	for i, e := range last {
		le := f.last[i]
		sq[len(buf)] = s.m3*le.w3 + 1 - s.mv*le.du - s.mw*le.dv
		buf = append(buf, exec.Edge{V: av + e.U, W: aw + e.V})
		if cap(buf)-len(buf) < 2 {
			if !f.emit(buf, sq[:len(buf)]) {
				return nil, false
			}
			buf = buf[:0]
		}
	}
	return buf, true
}

// partialFour is partial for a ◊ walk, pricing each edge as appendFour
// does.
func (w *walker) partialFour(buf []exec.Edge, av, aw int, s, e int64, both bool) ([]exec.Edge, bool) {
	f := w.four
	last, sq, st := w.eb[len(w.eb)-1], f.sq, f.at[len(f.at)-1]
	for d := s; d < e; d++ {
		i, flip := int(d), false
		if both {
			i, flip = int(d>>1), d&1 == 1
		}
		x, y := last[i].U, last[i].V
		le := f.last[i]
		dx, dy := le.du, le.dv
		if flip {
			x, y, dx, dy = y, x, dy, dx
		}
		sq[len(buf)] = st.m3*le.w3 + 1 - st.mv*dx - st.mw*dy
		buf = append(buf, exec.Edge{V: av + x, W: aw + y})
		if cap(buf)-len(buf) < 2 {
			if !f.emit(buf, sq[:len(buf)]) {
				return nil, false
			}
			buf = buf[:0]
		}
	}
	return buf, true
}

// walkFour is walkBatch for a ◊ walk: each batch comes with a parallel
// slice of its edges' ◊ (EdgeFourCyclesAt), under the same cancellation
// contract.  Both slices are reused between calls.
func (p *Product) walkFour(ctx context.Context, win window, yield func(batch []exec.Edge, sq []int64) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	bufp := exec.GetEdgeBuf()
	defer exec.PutEdgeBuf(bufp)
	f := &fourWalk{emit: yield}
	cancelled := false
	if done := ctx.Done(); done != nil {
		f.emit = func(batch []exec.Edge, sq []int64) bool {
			select {
			case <-done:
				cancelled = true
				return false
			default:
			}
			return yield(batch, sq)
		}
	}
	p.run(win, (*bufp)[:0], walker{four: f})
	if cancelled {
		return ctx.Err()
	}
	return nil
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
		p.run(win, (*bufp)[:0], walker{emit: yield})
		return nil
	}
	cancelled := false
	p.run(win, (*bufp)[:0], walker{emit: func(batch []exec.Edge) bool {
		select {
		case <-done:
			cancelled = true
			return false
		default:
		}
		return yield(batch)
	}})
	if cancelled {
		return ctx.Err()
	}
	return nil
}
