// The edge-walk kernel.  Every stream this package offers — the whole
// product, a shard, a 2D block, and a resumable range of either — is
// one question: "edges [lo, hi) of rows [rlo, rhi) × last-factor stripe
// [clo, chi)" of the canonical order.  A window names those arguments;
// one kernel answers them all, and the public walkers differ only in
// how they build the window and deliver its edges.
//
// A walk resolves its factor state once, into scratch pooled across
// walks: each level's edge list (the last one cut to the column
// stripe) and digit radix, and the window's term layout.  Nothing is
// cached on the Product between walks.  The kernel then seeks to lo in
// O(K) — every row of term t emits the same number of window edges —
// decodes the within-row offset into per-level digits, and runs an
// odometer over the inner levels.  Each odometer position is one prefix pair (pv, pw)
// whose expansion is one stripe of oriented edges (x, y), emitted as
// (pv·span + x, pw·span + y) by a closure-free loop; only the walk's
// first and last prefix pair can be partial.
//
// A plain walk (batch, per-edge or run) fuses each term's tail into its
// stripe, resolved once per term on entering it.  Above the last term it
// fuses trailing levels: the fused digit of levels u and u+1 is
// d_u·r_{u+1} + d_{u+1}, level u's digit major, so the odometer runs one
// level shorter and the order does not change.  In the last term, whose
// rows each expand the last level once under prefix pair (x, x), it
// fuses consecutive rows, which differ by (n_K, n_K).  Fusing stops once
// the stripe holds exec.BatchLen digits, and a fusion is skipped that
// would take the stripe past stripeBudget digits or past the window's
// own edges in that term, so resolving a stripe never costs more than
// walking it.  For K = 1 there are no inner levels, and only the last
// term's rows fuse.
//
// A ◊ walk runs the same odometer, unfused, and also prices every edge
// with its 4-cycle count (Thm. 5).  Within one prefix pair the anchor
// terms of EdgeFourCyclesAt are constant, so the walk folds them once
// per prefix pair, level by level as the odometer descends, and
// resolves the last factor's stripe once per walk; each edge's ◊ is
// then three multiplies in its own leaf loop.
//
// A run walk hands each prefix pair's stretch of the window to its
// consumer whole, as a Run: the pair, the stripe it expands and the
// digits it covers.  Nothing is appended per edge, so a consumer that
// can treat a stripe once per walk (the bin frame writer copies its
// delta bytes) pays per prefix pair, not per edge.
//
// A priced walk folds the same anchor terms, unfused, but adds each
// prefix pair's whole Σ◊ in closed form from stripe sums resolved once
// per walk, so its sum costs O(prefix pairs), not O(edges); only a cut
// first or last prefix pair is priced edge by edge.  In the same pass it
// delivers the window's runs, or nothing when only the sum is wanted.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

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
// batch walk appends to a buffer and hands full batches to emit, a
// per-edge walk hands every edge straight to yield, a run walk hands
// every prefix pair's run to runs, and a ◊ walk hands batches with their
// edges' ◊ to four.emit.  A priced walk (four set, four.emit nil) sums
// Σ◊ into four.sum and hands its runs to runs, or to nobody when runs
// is nil too.
type walker struct {
	p      *Product
	scr    *walkScratch
	ea     []graph.Edge   // A's edges, the prefix pairs of term-0 rows
	eb     [][]graph.Edge // B_u's edges; the last level's cut to the window's columns
	dig    []int          // odometer digit of each level
	pv, pw []int          // prefix pair through each level
	emit   func(batch []exec.Edge) bool
	yield  func(v, w int) bool
	runs   func(r Run) bool
	four   *fourWalk
	// The current term's tail: levels [leaf, K] expand as one stripe of
	// per digits under each prefix pair through level leaf-1, whose
	// vertices are span apart, or in the last term rows consecutive rows
	// expand as one stripe of rows·per digits.  st is that stripe, nil
	// for a ◊ walk and a sum-only pricing, which read the last level's
	// edges themselves.
	leaf, rows, per, span int
	st                    *Stripe
	// The edges a run walk may still deliver before it next looks at its
	// context.
	left int
	// A run or priced walk's context's done channel (nil: never
	// cancelled), with the walk's flag to raise once it is closed.
	done      <-chan struct{}
	cancelled *bool
}

// stripeBudget caps the digits of a fused stripe: 1 MiB of oriented
// edges.  A tail whose fusion would pass it stays unfused.
const stripeBudget = 1 << 16

// walkScratch is one walk's memory, pooled across walks: the factor
// edge lists, the odometer's digits and prefix pairs, and one stripe per
// term, whose edges share one buffer that each term's stripe reuses.
type walkScratch struct {
	edges    []graph.Edge
	lists    [][]graph.Edge
	ints     []int
	stripes  []Stripe
	oriented []graph.Edge
}

var scratchPool = sync.Pool{New: func() any { return new(walkScratch) }}

// fourWalk is a ◊ or priced walk's state.  at[u] holds the Thm. 5
// anchor terms entering level u for the odometer's current prefix pair.
// terms[u] holds B_u's terms for each of its edges the walk expands,
// resolved once per walk so that fold reads them instead of searching
// the factor; last is terms[k], the stripe's, and tot their sums.  An
// edge (x, y) of stripe edge i under the last level's anchor s has
//
//	◊ = s.m3·last[i].w3 + 1 − s.mv·d_x − s.mw·d_y,
//
// d_x and d_y being last[i].du and last[i].dv, swapped when the edge is
// the flipped orientation (V, U).  Summed over the n stripe edges of
// a whole prefix pair, that is
//
//	m3·ΣW3 + n − mv·ΣDU − mw·ΣDV                 in one orientation,
//	2·m3·ΣW3 + 2n − (mv+mw)·(ΣDU+ΣDV)            in both.
//
// The terms wrap like the ◊ walk's; every window's Σ◊ is at most 4·□,
// which construction proves fits in int64, so the sum comes out exact.
type fourWalk struct {
	at    []anchor
	terms [][]fourEdge
	last  []fourEdge
	tot   fourEdge // ΣW3, ΣDU, ΣDV over the stripe
	// A ◊ walk's batch sink and the ◊ of each buffered edge, at its
	// batch index.
	sq   []int64
	emit func(batch []exec.Edge, sq []int64) bool
	// A priced walk's Σ◊ so far, and the prefix pairs it priced since it
	// last looked at the walk's context.
	sum   int64
	pairs int
}

// pricePoll is how many prefix pairs a priced walk prices between two
// looks at its context: about 45 µs of work at the ~43 ns a pair that
// one-edge stripes cost on a 2-vCPU Xeon, and more under -race.
const pricePoll = 1 << 10

// anchor is the state EdgeFourCyclesAt carries into a level: m3 is the
// (M³∘M) entry of the prefix pair through the level above, and mv, mw
// are the pair's two M-degrees.  M is that level's left operand: the
// prefix plus I, or A itself at a mode-(i) A edge.
type anchor struct{ m3, mv, mw int64 }

// fourEdge is a factor edge {U, V}'s part of Thm. 5: the 3-walk count
// walk3(U, V) and the endpoint degrees d_U, d_V.
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

// digit is level u's digit as an edge index and orientation: edge d/2
// in orientation d%2 (flip: (V, U)) where both are emitted, else edge d.
func (w *walker) digit(u, t int) (i int, flip bool) {
	return orient(w.dig[u], t == 0 || u > t)
}

// orient splits digit d into an edge index and orientation, as digit
// does, for a level that emits both orientations or only one.
func orient(d int, both bool) (i int, flip bool) {
	if both {
		return d >> 1, d&1 == 1
	}
	return d, false
}

// edge is level u's factor edge under its digit, oriented.
func (w *walker) edge(u, t int) (x, y int) {
	i, flip := w.digit(u, t)
	e := w.eb[u][i]
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

// run walks the window through the sink w names (see walker).  A walk
// that emits batches starts from buf empty with capacity >= 2; each full
// batch, then the final partial one, is delivered.
func (p *Product) run(win window, buf []exec.Edge, w walker) {
	remaining := win.hi - win.lo
	if remaining <= 0 {
		return
	}
	t, row, off := p.seek(win, win.lo)
	w.p = p
	w.resolve(t, win)
	defer scratchPool.Put(w.scr)
	if w.four != nil {
		w.four.resolve(p, w.eb[max(t, 1):], cap(buf))
	}
	for ; remaining > 0; t++ {
		if p.rowEdges(win, t) > 0 {
			// The first row's offset decodes into its digits; every later
			// row starts from zero digits and a zero offset.
			w.enter(t, win)
			w.dig[w.leaf], off = int(off%int64(w.per)), off/int64(w.per)
			for u := w.leaf - 1; u >= max(t, 1); u-- {
				r := int64(w.radix(u, t))
				w.dig[u], off = int(off%r), off/r
			}
			for end := min(win.rhi, p.termOff[t+1]); row < end && remaining > 0; {
				g := min(w.rows, end-row)
				var ok bool
				if buf, remaining, ok = w.row(t, row, g, buf, remaining); !ok {
					return
				}
				row += g
			}
		}
		row = p.termOff[t+1]
	}
	switch {
	case len(buf) == 0:
	case w.four != nil && w.four.emit != nil:
		w.four.emit(buf, w.four.sq[:len(buf)])
	default:
		w.emit(buf)
	}
}

// resolve takes the walk's scratch from the pool and resolves into it
// the odometer's state and the edge lists of every level a walk from
// term t on expands, A's too from term 0, the last one cut to the
// window's column stripe.
func (w *walker) resolve(t int, win window) {
	p, k := w.p, len(w.p.bs)
	scr := scratchPool.Get().(*walkScratch)
	w.scr = scr
	scr.ints = slices.Grow(scr.ints[:0], 3*(k+1))[:3*(k+1)]
	clear(scr.ints)
	w.dig, w.pv, w.pw = scr.ints[:k+1], scr.ints[k+1:2*(k+1)], scr.ints[2*(k+1):]
	scr.lists = slices.Grow(scr.lists[:0], k+1)[:k+1]
	clear(scr.lists)
	w.eb = scr.lists
	need := 0
	for u := min(t, 1); u <= k; u++ {
		need += p.mEdges[u]
	}
	scr.edges = slices.Grow(scr.edges[:0], need)
	list := func(g *graph.Graph) []graph.Edge {
		at := len(scr.edges)
		scr.edges = g.AppendEdges(scr.edges)
		return scr.edges[at:len(scr.edges):len(scr.edges)]
	}
	if t == 0 {
		w.ea = list(p.a.G)
	}
	for u := max(t, 1); u <= k; u++ {
		w.eb[u] = list(p.bs[u-1].G)
	}
	w.eb[k] = w.eb[k][win.clo:win.chi]
	scr.stripes = slices.Grow(scr.stripes[:0], k+1)[:k+1]
}

// enter sets up term t's tail for the walk: the levels it fuses, or in
// the last term the rows, and the stripe they expand to, which it
// resolves unless the walk reads the last level's edges itself.  A ◊
// or priced walk fuses nothing.
func (w *walker) enter(t int, win window) {
	p, k := w.p, len(w.p.bs)
	w.leaf, w.rows, w.per, w.span = k, 1, w.radix(k, t), p.rad.sizes[k]
	if w.four == nil {
		budget := min(stripeBudget, p.termEdges(win, t))
		for a := max(t, 1); w.leaf > a && w.per < exec.BatchLen; w.leaf-- {
			n := int64(w.per) * int64(w.radix(w.leaf-1, t))
			if n > budget {
				break
			}
			w.per, w.span = int(n), w.span*p.rad.sizes[w.leaf-1]
		}
		if t == k && w.per > 0 && w.per < exec.BatchLen {
			w.rows = max(1, min((exec.BatchLen+w.per-1)/w.per, int(budget)/w.per))
		}
	}
	w.st = nil
	if w.four == nil || w.runs != nil {
		w.st = w.stripe(t)
	}
}

// stripe resolves term t's stripe: the oriented edges of levels
// [leaf, K] in odometer order, level leaf's digit major, each fused
// digit's edge the levels' edges placed by the mixed radix below the
// prefix pair; then, in the last term, the same digits under each of
// rows consecutive rows, each row n_K further along both sides.
func (w *walker) stripe(t int) *Stripe {
	p, k, scr := w.p, len(w.p.bs), w.scr
	n := w.per * w.rows
	es := slices.Grow(scr.oriented[:0], n)[:1]
	es[0] = graph.Edge{}
	for u := w.leaf; u <= k; u++ {
		// Expand every fused prefix by level u's digits, in place from
		// the back: prefix i's digits land at [i·r, (i+1)·r), past every
		// prefix still to be read.
		r, size, both := w.radix(u, t), p.rad.sizes[u], t == 0 || u > t
		m := len(es)
		es = es[:m*r]
		for i := m - 1; i >= 0; i-- {
			bx, by := es[i].U*size, es[i].V*size
			for d := r - 1; d >= 0; d-- {
				j, flip := orient(d, both)
				e := w.eb[u][j]
				if flip {
					e.U, e.V = e.V, e.U
				}
				es[i*r+d] = graph.Edge{U: bx + e.U, V: by + e.V}
			}
		}
	}
	for i := 1; i < w.rows; i++ {
		off := i * w.span
		for _, e := range es[:w.per] {
			es = append(es, graph.Edge{U: e.U + off, V: e.V + off})
		}
	}
	scr.oriented = es
	st := &scr.stripes[t]
	st.Edges = es
	return st
}

// termEdges is how many of the window's edges lie in term t.
func (p *Product) termEdges(win window, t int) int64 {
	var start int64
	for u := 0; u < t; u++ {
		if rows := p.termRows(win, u); rows > 0 {
			start += int64(rows) * p.rowEdges(win, u)
		}
	}
	end := start
	if rows := p.termRows(win, t); rows > 0 {
		end += int64(rows) * p.rowEdges(win, t)
	}
	return max(0, min(end, win.hi)-max(start, win.lo))
}

// resolve sets up a ◊ or priced walk whose rows expand levels
// len(p.bs)-len(eb)+1 .. len(p.bs) over the edge lists eb (the last one
// the stripe): each walked edge's terms, the stripe's sums, and for a ◊
// walk a ◊ buffer parallel to a batch buffer of capacity n.
func (f *fourWalk) resolve(p *Product, eb [][]graph.Edge, n int) {
	k := len(p.bs)
	f.at = make([]anchor, k+1)
	f.terms = make([][]fourEdge, k+1)
	var all int
	for _, es := range eb {
		all += len(es)
	}
	flat := make([]fourEdge, all)
	for j, es := range eb {
		u := k - len(eb) + 1 + j
		b := p.bs[u-1]
		f.terms[u], flat = flat[:len(es):len(es)], flat[len(es):]
		for i, e := range es {
			f.terms[u][i] = fourEdge{w3: b.walk3(e.U, e.V), du: b.D[e.U], dv: b.D[e.V]}
		}
	}
	f.last = f.terms[k]
	for _, le := range f.last {
		f.tot.w3, f.tot.du, f.tot.dv = f.tot.w3+le.w3, f.tot.du+le.du, f.tot.dv+le.dv
	}
	if f.emit != nil {
		f.sq = make([]int64, n)
	}
}

// price adds the Σ◊ of last-level digits [s, e) of the current prefix
// pair, of per digits in all: the closed form for a whole pair, edge by
// edge for a cut one.  Every pricePoll pairs it looks at the context and
// returns false once it is done.
func (w *walker) price(s, e, per int64, both bool) bool {
	f := w.four
	if w.done != nil {
		if f.pairs++; f.pairs == pricePoll {
			f.pairs = 0
			if !w.live() {
				return false
			}
		}
	}
	a, t := f.at[len(f.at)-1], f.tot
	switch {
	case e-s < per:
		for d := s; d < e; d++ {
			i, flip := int(d), false
			if both {
				i, flip = int(d>>1), d&1 == 1
			}
			le := f.last[i]
			dx, dy := le.du, le.dv
			if flip {
				dx, dy = dy, dx
			}
			f.sum += a.m3*le.w3 + 1 - a.mv*dx - a.mw*dy
		}
	case both:
		f.sum += 2*(a.m3*t.w3+int64(len(f.last))) - (a.mv+a.mw)*(t.du+t.dv)
	default:
		f.sum += a.m3*t.w3 + int64(len(f.last)) - a.mv*t.du - a.mw*t.dv
	}
	return true
}

// row emits g rows of term t from row r on, g > 1 only where the term's
// stripe fuses rows, from the odometer's current digits, at most
// remaining edges, leaving every digit zero for the next row.  It
// returns the buffer, the edges still owed, and false once the consumer
// stopped the walk.
func (w *walker) row(t, r, g int, buf []exec.Edge, remaining int64) ([]exec.Edge, int64, bool) {
	p := w.p
	k, j := len(p.bs), w.leaf
	a := max(t, 1) // anchor level
	if t == 0 {
		w.pv[0], w.pw[0] = w.ea[r].U, w.ea[r].V
	} else {
		idx := r - p.termOff[t]
		w.pv[a-1], w.pw[a-1] = idx, idx
	}
	for u := a; u < j; u++ {
		w.descend(u, t)
	}
	from := a - 1 // shallowest level whose ◊ anchor terms are stale; below a, the seed too
	both := t == 0 || k > t
	per := int64(g * w.per)
	for {
		av, aw := w.pv[j-1]*w.span, w.pw[j-1]*w.span
		s := int64(w.dig[j])
		c := min(per-s, remaining)
		remaining -= c
		ok := true
		switch {
		case w.four != nil:
			w.fold(t, r, from)
			buf, ok = w.fourPair(buf, av, aw, s, s+c, per, both)
		case w.runs != nil:
			ok = w.deliver(av, aw, s, s+c)
		case w.yield != nil:
			ok = w.yieldRun(av, aw, s, s+c)
		default:
			buf, ok = w.appendRun(buf, av, aw, s, s+c)
		}
		if !ok {
			return nil, 0, false
		}
		w.dig[j] = 0
		if remaining == 0 {
			return buf, 0, true
		}
		u := j - 1
		for ; u >= a; u-- {
			if w.dig[u]++; w.dig[u] < w.radix(u, t) {
				break
			}
			w.dig[u] = 0
		}
		if u < a {
			return buf, remaining, true
		}
		for from = u; u < j; u++ {
			w.descend(u, t)
		}
	}
}

// fourPair is row's step for a ◊ or priced walk once fold has set the
// prefix pair's anchor terms: a ◊ walk, which covers whole prefix pairs,
// emits the pair with each edge's ◊; a priced walk adds the Σ◊ of
// last-level digits [s, e) of per and delivers them as a run, if it
// delivers anything.
func (w *walker) fourPair(buf []exec.Edge, av, aw int, s, e, per int64, both bool) ([]exec.Edge, bool) {
	switch {
	case w.four.emit != nil:
		return w.appendFour(buf, av, aw, both)
	case !w.price(s, e, per, both):
		return nil, false
	case w.runs == nil:
		return buf, true
	}
	return buf, w.deliver(av, aw, s, e)
}

// deliver hands stripe digits [s, e) under prefix pair (av, aw) to a
// run walk's consumer.  Under a cancellable context it cuts the run
// wherever the walk has delivered another exec.BatchLen edges and looks
// at the context there, so a run walk stops where a batch walk would:
// nothing is delivered once a cancellation is seen, and at most
// exec.BatchLen edges are delivered past it.
func (w *walker) deliver(av, aw int, s, e int64) bool {
	r := Run{V: av, W: aw, Stripe: w.st, Lo: int(s), Hi: int(e)}
	if w.done == nil {
		return w.runs(r)
	}
	for hi := r.Hi; r.Lo < hi; r.Lo = r.Hi {
		if w.left == 0 {
			if !w.live() {
				return false
			}
			w.left = exec.BatchLen
		}
		r.Hi = min(hi, r.Lo+w.left)
		w.left -= r.Hi - r.Lo
		if !w.runs(r) {
			return false
		}
	}
	return true
}

// live looks at the walk's context, raising the walk's cancelled flag
// and returning false once it is done.
func (w *walker) live() bool {
	select {
	case <-w.done:
		*w.cancelled = true
		return false
	default:
		return true
	}
}

// fold brings a ◊ or priced walk's anchor terms down to the last level
// after the odometer re-descended levels [from, k) of row r of term t;
// from below the anchor level a first seeds level a from the row.
// Entering level u+1 through oriented edge (x, y) of B_u, whose terms
// the walk resolved,
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
		i, flip := w.digit(u, t)
		le, s := w.four.terms[u][i], at[u]
		dx, dy := le.du, le.dv
		if flip {
			dx, dy = dy, dx
		}
		at[u+1] = anchor{m3: s.m3*le.w3 + 3, mv: s.mv*dx + 1, mw: s.mw*dy + 1}
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

// appendRun is the batch hot loop: stripe digits [s, e) under prefix
// pair (av, aw) appended to buf, full batches flushed to emit.
func (w *walker) appendRun(buf []exec.Edge, av, aw int, s, e int64) ([]exec.Edge, bool) {
	for es := w.st.Edges[s:e]; len(es) > 0; {
		src := es[:min(len(es), cap(buf)-len(buf))]
		dst := buf[len(buf) : len(buf)+len(src)]
		dst = dst[:len(src)] // proves dst[i] in bounds
		for i, e := range src {
			dst[i] = exec.Edge{V: av + e.U, W: aw + e.V}
		}
		buf, es = buf[:len(buf)+len(src)], es[len(src):]
		if len(buf) == cap(buf) {
			if !w.emit(buf) {
				return nil, false
			}
			buf = buf[:0]
		}
	}
	return buf, true
}

// yieldRun is appendRun for a per-edge walk.
func (w *walker) yieldRun(av, aw int, s, e int64) bool {
	yield := w.yield
	for _, e := range w.st.Edges[s:e] {
		if !yield(av+e.U, aw+e.V) {
			return false
		}
	}
	return true
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

// walkFour walks the whole product in batches, each with a parallel
// slice of its edges' ◊ (EdgeFourCyclesAt).  Both slices are reused
// between calls; the walk stops early if yield returns false.
func (p *Product) walkFour(yield func(batch []exec.Edge, sq []int64) bool) {
	bufp := exec.GetEdgeBuf()
	defer exec.PutEdgeBuf(bufp)
	p.run(p.whole(), (*bufp)[:0], walker{four: &fourWalk{emit: yield}})
}

// walkPriced prices win sum-only: it returns the Σ◊ of its edges,
// delivering nothing.  A walk a cancellation stopped returns the sum of
// what it priced so far.
func (p *Product) walkPriced(ctx context.Context, win window) (int64, error) {
	f := &fourWalk{}
	err := p.walkRuns(ctx, win, f, nil)
	return f.sum, err
}

// walkRuns delivers win as runs under walkBatch's contract, run by run
// (see deliver), or with f set prices it too, looking at ctx every
// pricePoll prefix pairs; a priced walk with a nil yield delivers
// nothing.  A non-cancellable context skips every look.
func (p *Product) walkRuns(ctx context.Context, win window, f *fourWalk, yield func(r Run) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cancelled := false
	p.run(win, nil, walker{four: f, runs: yield, done: ctx.Done(), cancelled: &cancelled})
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
	buf := (*bufp)[:0]
	done := ctx.Done()
	if done == nil {
		p.run(win, buf, walker{emit: yield})
		return nil
	}
	cancelled := false
	p.run(win, buf, walker{emit: func(batch []exec.Edge) bool {
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
