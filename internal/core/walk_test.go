package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
)

// oracleEdge is one edge of the canonical order with its coordinates in
// the 2D block vocabulary: the stream row it belongs to and the index of
// the last-factor edge it expands.
type oracleEdge struct {
	v, w, row, col int
}

// canonicalOrder enumerates C's edge stream from the definition alone,
// sharing no code with the walkers.  Expanding the chain recursion gives
// K+1 Kronecker terms; their rows, in order, are
//
//	term 0:      the A edges {i, j}                (prefix pair (i, j))
//	term 1:      the A vertices x, mode (ii) only  (prefix pair (x, x))
//	term t >= 2: the C_{t-1} vertices x            (prefix pair (x, x))
//
// A row anchors at level max(t, 1) and expands every later level u over
// B_u's edge list in graph.Edges order, the pair (v, w) becoming
// (v·n_u + U, w·n_u + V) and then, unless u is a self-loop row's anchor,
// the flipped (v·n_u + V, w·n_u + U).  The last level varies fastest.
func canonicalOrder(p *Product) []oracleEdge {
	fs := p.Factors()
	k := len(fs) - 1
	edges := make([][]graph.Edge, len(fs))
	for u, f := range fs {
		edges[u] = f.G.Edges()
	}
	var out []oracleEdge
	row := 0
	var expand func(u, v, w int, both bool)
	expand = func(u, v, w int, both bool) {
		n := fs[u].N()
		for i, e := range edges[u] {
			for flip := 0; flip < 2; flip++ {
				if flip == 1 && !both {
					break
				}
				x, y := e.U, e.V
				if flip == 1 {
					x, y = y, x
				}
				if u == k {
					out = append(out, oracleEdge{v*n + x, w*n + y, row, i})
				} else {
					expand(u+1, v*n+x, w*n+y, true)
				}
			}
		}
	}
	for _, e := range edges[0] {
		expand(1, e.U, e.V, true)
		row++
	}
	prefix := fs[0].N() // vertices of C_{t-1}
	for t := 1; t <= k; t++ {
		if t >= 2 || p.Mode() == ModeSelfLoopFactor {
			for x := 0; x < prefix; x++ {
				expand(t, x, x, false)
				row++
			}
		}
		prefix *= fs[t].N()
	}
	return out
}

// blockOf restricts the canonical order to block (r, c) of an R×C grid:
// rows in exec.Stripe(r, R, rows) and last-factor edges in
// exec.Stripe(c, C, |E_{B_K}|), order kept.
func blockOf(order []oracleEdge, rows, mLast, r, R, c, C int) []oracleEdge {
	rlo, rhi := exec.Stripe(r, R, rows)
	clo, chi := exec.Stripe(c, C, mLast)
	var out []oracleEdge
	for _, e := range order {
		if e.row >= rlo && e.row < rhi && e.col >= clo && e.col < chi {
			out = append(out, e)
		}
	}
	return out
}

// TestEachEdgeMatchesCanonicalOrder: the walker's full stream is the
// definition's order, edge for edge, on every oracle chain and every
// block-test product, and its length is the closed-form |E_C|.
func TestEachEdgeMatchesCanonicalOrder(t *testing.T) {
	products := map[string]*Product{}
	for _, c := range chainOracleCases() {
		products[c.name] = buildChainCase(t, c)
	}
	for name, p := range blockTestProducts(t) {
		products["block/"+name] = p
	}
	for name, p := range products {
		want := canonicalOrder(p)
		if int64(len(want)) != p.NumEdges() {
			t.Fatalf("%s: definition has %d edges, closed form %d", name, len(want), p.NumEdges())
		}
		i := 0
		p.EachEdge(func(v, w int) bool {
			if i >= len(want) || want[i].v != v || want[i].w != w {
				t.Fatalf("%s: edge %d is (%d,%d), definition says %v", name, i, v, w, want[min(i, len(want)-1)])
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("%s: EachEdge streamed %d edges, want %d", name, i, len(want))
		}
	}
}

// fourWalkOf runs the priced run walk (EachEdgeBlockRangeRunContext
// with a Σ◊ accumulator) and the sum-only pricer
// (PriceBlockRangeContext) of edges [lo, hi) of block (r, c) of an R×C
// grid, under a cancellable and a background context.  It fails unless
// the run walk yields exactly want, in order, in legal runs, and every
// sum is Σ EdgeFourCyclesAt over want.  Callers pass the slice of the
// canonical order the plain walkers of the same window are checked
// against, so the priced walk's edge sequence is the plain walk's.
func fourWalkOf(t *testing.T, what string, p *Product, r, R, c, C int, lo, hi int64, want []oracleEdge) {
	t.Helper()
	var sum int64
	for _, e := range want {
		d, err := p.EdgeFourCyclesAt(e.v, e.w)
		if err != nil {
			t.Fatalf("%s: EdgeFourCyclesAt(%d,%d): %v", what, e.v, e.w, err)
		}
		sum += d
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"cancellable": live, "background": context.Background()} {
		i := 0
		var got int64
		err := p.EachEdgeBlockRangeRunContext(ctx, r, R, c, C, lo, hi, &got, func(run Run) bool {
			checkRun(t, what+" "+name, run, ctx == live)
			for d := run.Lo; d < run.Hi; d++ {
				x, y := run.Stripe.Edge(d)
				if i >= len(want) || want[i].v != run.V+x || want[i].w != run.W+y {
					t.Fatalf("%s %s: edge %d is (%d,%d), oracle has %d edges", what, name, i, run.V+x, run.W+y, len(want))
				}
				i++
			}
			return true
		})
		if err != nil || got != sum {
			t.Fatalf("%s %s: priced Σ◊ %d, %v; Σ EdgeFourCyclesAt %d", what, name, got, err, sum)
		}
		if i != len(want) {
			t.Fatalf("%s %s: %d edges, oracle %d", what, name, i, len(want))
		}
		if got, err := p.PriceBlockRangeContext(ctx, r, R, c, C, lo, hi); err != nil || got != sum {
			t.Fatalf("%s %s sum-only: priced Σ◊ %d, %v; Σ EdgeFourCyclesAt %d", what, name, got, err, sum)
		}
	}
}

// checkRun fails unless run is a legal run: a non-empty digit range of
// its stripe, at most exec.BatchLen digits long under a cancellable
// context, whose stripe is the last factor's edges in one of the two
// orientations.
func checkRun(t *testing.T, what string, run Run, cancellable bool) {
	t.Helper()
	if run.Stripe == nil || run.Lo < 0 || run.Lo >= run.Hi || run.Hi > run.Stripe.Len() {
		t.Fatalf("%s: run [%d,%d) of a stripe of %d digits", what, run.Lo, run.Hi, run.Stripe.Len())
	}
	if cancellable && run.Hi-run.Lo > exec.BatchLen {
		t.Fatalf("%s: run of %d digits under a cancellable context", what, run.Hi-run.Lo)
	}
}

// runEdges adapts a run walk to checkWalks' per-edge vocabulary.
func runEdges(t *testing.T, what string, cancellable bool, walk func(yield func(Run) bool) error) func(yield func(v, w int) bool) error {
	return func(yield func(v, w int) bool) error {
		return walk(func(run Run) bool {
			checkRun(t, what, run, cancellable)
			for d := run.Lo; d < run.Hi; d++ {
				x, y := run.Stripe.Edge(d)
				if !yield(run.V+x, run.W+y) {
					return false
				}
			}
			return true
		})
	}
}

// TestFourWalkPreCancelled: like the plain walkers, the priced walk under
// a dead context, streaming runs or sum-only, yields nothing, prices
// nothing and returns ctx.Err().
func TestFourWalkPreCancelled(t *testing.T) {
	p := testProducts(t)["mode2"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sum int64
	err := p.EachEdgeBlockRangeRunContext(ctx, 0, 1, 0, 1, 0, p.NumEdges(), &sum, func(Run) bool {
		t.Fatal("priced run yielded under a pre-cancelled context")
		return true
	})
	if !errors.Is(err, context.Canceled) || sum != 0 {
		t.Fatalf("runs: Σ◊ %d, err %v; want 0, context.Canceled", sum, err)
	}
	sum, err = p.PriceBlockRangeContext(ctx, 0, 1, 0, 1, 0, p.NumEdges())
	if !errors.Is(err, context.Canceled) || sum != 0 {
		t.Fatalf("sum-only: Σ◊ %d, err %v; want 0, context.Canceled", sum, err)
	}
}

// TestRunWalkCancelContract: a run walk, plain and priced, whose yield
// cancels its context after at edges stops as a batch walk does: it
// returns ctx.Err() having delivered the canonical prefix and at most
// exec.BatchLen edges past the cancellation, in runs no longer than
// exec.BatchLen, although the same walk under a background context
// delivers longer ones.  Starts on and off the batch grid.
func TestRunWalkCancelContract(t *testing.T) {
	p, err := New(gen.Star(3), gen.CompleteBipartite(50, 50).Graph, ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	order := canonicalOrder(p)
	n := p.NumEdges()
	longest := 0
	if err := p.EachEdgeBlockRangeRunContext(context.Background(), 0, 1, 0, 1, 0, n, nil, func(r Run) bool {
		longest = max(longest, r.Hi-r.Lo)
		return true
	}); err != nil || longest <= exec.BatchLen {
		t.Fatalf("background run walk: longest run %d, %v; want one over %d", longest, err, exec.BatchLen)
	}
	for _, lo := range []int64{0, 1234} {
		for _, at := range []int64{1, exec.BatchLen, 7000} {
			for _, priced := range []bool{false, true} {
				ctx, cancel := context.WithCancel(context.Background())
				var sum *int64
				if priced {
					sum = new(int64)
				}
				delivered, cancelled := int64(0), int64(-1)
				err := p.EachEdgeBlockRangeRunContext(ctx, 0, 1, 0, 1, lo, n, sum, func(r Run) bool {
					checkRun(t, "cancelled run walk", r, true)
					for d := r.Lo; d < r.Hi; d++ {
						x, y := r.Stripe.Edge(d)
						if e := order[lo+delivered]; e.v != r.V+x || e.w != r.W+y {
							t.Fatalf("lo %d: edge %d is (%d,%d), canonical (%d,%d)", lo, delivered, r.V+x, r.W+y, e.v, e.w)
						}
						delivered++
					}
					if cancelled < 0 && delivered >= at {
						cancel()
						cancelled = delivered
					}
					return true
				})
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("lo %d at %d priced=%v: err %v, want context.Canceled", lo, at, priced, err)
				}
				if past := delivered - cancelled; past > exec.BatchLen {
					t.Fatalf("lo %d at %d priced=%v: %d edges delivered past the cancellation", lo, at, priced, past)
				}
			}
		}
	}
}

// TestPricedCancelMidWindow: the priced walk of a product whose pricing
// runs for minutes — sf2000x2000x40000 chained with path2, 6.8·10⁹ edges
// in ~3.4·10⁹ prefix pairs of one stripe edge each — returns ctx.Err()
// promptly when its context is cancelled mid-window, sum-only (which
// only the every-pricePoll-pairs look at the context can stop) and
// streaming runs.
func TestPricedCancelMidWindow(t *testing.T) {
	sf := gen.ConnectedBipartiteScaleFree(2000, 2000, 40000, 7)
	path2, err := graph.AsBipartite(gen.Path(2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewChainWithParts(sf.Graph, ModeSelfLoopFactor, sf, path2)
	if err != nil {
		t.Fatal(err)
	}
	for name, walk := range map[string]func(ctx context.Context) error{
		"sum-only": func(ctx context.Context) error {
			_, err := p.PriceBlockRangeContext(ctx, 0, 1, 0, 1, 0, p.NumEdges())
			return err
		},
		"runs": func(ctx context.Context) error {
			var sum int64
			return p.EachEdgeBlockRangeRunContext(ctx, 0, 1, 0, 1, 0, p.NumEdges(), &sum, func(Run) bool { return true })
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		at := make(chan time.Time, 1)
		time.AfterFunc(50*time.Millisecond, func() {
			at <- time.Now()
			cancel()
		})
		err := walk(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err %v, want context.Canceled mid-window", name, err)
		}
		if d := time.Since(<-at); d > 250*time.Millisecond {
			t.Errorf("%s: returned %v after the cancellation", name, d)
		}
	}
}

// TestFourWalkMatchesPointQueries: on every oracle chain, mode (i) and
// mode (ii), the priced walk of the whole product yields EachEdge's
// sequence and its Σ EdgeFourCyclesAt; the ◊ walk's per-edge replay
// EachEdgeFourCycle yields the same sequence with every ◊ equal to
// EdgeFourCyclesAt, and stops when told to; and the sum-only priced Σ◊
// of random block × range windows equals the ◊ walk's sum over the
// same edges.
func TestFourWalkMatchesPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, c := range chainOracleCases() {
		p := buildChainCase(t, c)
		order := canonicalOrder(p)
		fourWalkOf(t, c.name, p, 0, 1, 0, 1, 0, p.NumEdges(), order)
		var sq []int64
		p.EachEdgeFourCycle(func(v, w int, s int64) bool {
			i := len(sq)
			if d, err := p.EdgeFourCyclesAt(v, w); i >= len(order) || order[i].v != v || order[i].w != w || err != nil || d != s {
				t.Fatalf("%s: EachEdgeFourCycle edge %d is (%d,%d) ◊ %d; EdgeFourCyclesAt %d, %v", c.name, i, v, w, s, d, err)
			}
			sq = append(sq, s)
			return true
		})
		if len(sq) != len(order) {
			t.Fatalf("%s: EachEdgeFourCycle yielded %d edges, EachEdge %d", c.name, len(sq), len(order))
		}
		n := 0
		p.EachEdgeFourCycle(func(int, int, int64) bool {
			n++
			return n < len(order)/2
		})
		if n != len(order)/2 {
			t.Fatalf("%s: EachEdgeFourCycle stopped after %d edges, yield said stop at %d", c.name, n, len(order)/2)
		}
		for range 50 {
			R, C := 1+rng.Intn(4), 1+rng.Intn(5)
			r, col := rng.Intn(R), rng.Intn(C)
			rlo, rhi := exec.Stripe(r, R, p.numRows())
			clo, chi := exec.Stripe(col, C, p.lastEdges())
			var block []int64
			for i, e := range order {
				if e.row >= rlo && e.row < rhi && e.col >= clo && e.col < chi {
					block = append(block, sq[i])
				}
			}
			lo := rng.Int63n(int64(len(block)) + 1)
			hi := lo + rng.Int63n(int64(len(block))-lo+1)
			var want int64
			for _, s := range block[lo:hi] {
				want += s
			}
			got, err := p.PriceBlockRangeContext(context.Background(), r, R, col, C, lo, hi)
			if err != nil || got != want {
				t.Fatalf("%s block (%d,%d) of %d×%d [%d,%d): priced Σ◊ %d, %v; ◊ walk %d", c.name, r, col, R, C, lo, hi, got, err, want)
			}
		}
	}
}

// TestWalkerSurface pins the public walk API: among *Product's exported
// methods, the EachEdge*/StreamEdges* walkers are exactly these seven.
// Every stream shape is a window of the one kernel, so a new shape is a
// new window behind the block × range walk, not a new entry point;
// adding a walker means editing this list.
func TestWalkerSurface(t *testing.T) {
	want := []string{ // reflect lists methods in lexical order
		"EachEdge",
		"EachEdgeBlockBatchContext",
		"EachEdgeBlockRangeBatchContext",
		"EachEdgeBlockRangeRunContext",
		"EachEdgeFourCycle",
		"EachEdgeRangeBatchContext",
		"StreamEdgesParallelContext",
	}
	var got []string
	typ := reflect.TypeOf(&Product{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "EachEdge") || strings.HasPrefix(name, "StreamEdges") {
			got = append(got, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("walker methods %v,\nwant exactly %v", got, want)
	}
}

// streamDigest is an order-sensitive CRC-64 (ECMA) of the full stream,
// each edge hashed as two little-endian uint64s.
func streamDigest(p *Product) (sum uint64, n int64) {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var b [16]byte
	p.EachEdge(func(v, w int) bool {
		binary.LittleEndian.PutUint64(b[:8], uint64(v))
		binary.LittleEndian.PutUint64(b[8:], uint64(w))
		h.Write(b[:])
		n++
		return true
	})
	return h.Sum64(), n
}

// TestStreamDigestsPinned pins the canonical order of three products by
// digest: the perfbench chain-bin spec (sf48x96x240 selfloop chain with
// crown4, seed 2020), the Table I unicode square, and the two k = 4
// oracle chains.  A walker change that reorders, drops or duplicates a
// single edge moves the digest.
func TestStreamDigestsPinned(t *testing.T) {
	sf := gen.ConnectedBipartiteScaleFree(48, 96, 240, 2020)
	chainBin, err := NewChainWithParts(sf.Graph, ModeSelfLoopFactor, sf, gen.Crown(4))
	if err != nil {
		t.Fatal(err)
	}
	u := gen.UnicodeLike(2020)
	tableI, err := NewRelaxedWithParts(u.Graph, u, ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	products := map[string]*Product{"chain-bin": chainBin, "table1": tableI}
	for _, c := range chainOracleCases() {
		if c.name == "k4_mode1" || c.name == "k4_mode2" {
			products[c.name] = buildChainCase(t, c)
		}
	}
	pinned := map[string]struct {
		sum uint64
		n   int64
	}{
		"chain-bin": {0x2d292ebef9a805fc, 4949424},
		"table1":    {0xb1352a2030565b8c, 4245280},
		"k4_mode1":  {0x4360e020f241daa7, 200},
		"k4_mode2":  {0x96c913f2537e33fa, 128},
	}
	for name, want := range pinned {
		sum, n := streamDigest(products[name])
		if sum != want.sum || n != want.n {
			t.Errorf("%s: digest %#016x over %d edges, pinned %#016x over %d", name, sum, n, want.sum, want.n)
		}
	}
}

// TestTableIFourCycleRoutes pins the Table I product's 4-cycle count on
// both routes: the closed form from factor sums and the ◊ walk's sum
// over all 4,245,280 edges.
func TestTableIFourCycleRoutes(t *testing.T) {
	u := gen.UnicodeLike(2020)
	p, err := NewRelaxedWithParts(u.Graph, u, ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	const want = 164048481
	if got := p.GlobalFourCycles(); got != want {
		t.Errorf("GlobalFourCycles = %d, pinned %d", got, want)
	}
	if got := p.GlobalFourCyclesViaEdges(); got != want {
		t.Errorf("GlobalFourCyclesViaEdges = %d, pinned %d", got, want)
	}
}

// fuzzPool is the small-factor product pool FuzzEdgeRange draws from,
// with each product's definition-order oracle, built once.
var fuzzPool = sync.OnceValue(func() []fuzzCase {
	var pool []fuzzCase
	add := func(p *Product, err error) {
		if err != nil {
			panic(err)
		}
		pool = append(pool, fuzzCase{p, canonicalOrder(p)})
	}
	for _, c := range chainOracleCases() {
		mk := NewChain
		if !c.strict {
			mk = NewChainRelaxed
		}
		add(mk(c.a, c.mode, c.bs...))
	}
	add(NewChain(gen.Path(3), ModeSelfLoopFactor, gen.Path(2), gen.Star(3)))
	add(NewChain(gen.Complete(3), ModeNonBipartiteFactor, gen.Crown(3).Graph, gen.Path(3)))
	add(New(gen.Complete(4), gen.Crown(3).Graph, ModeNonBipartiteFactor))
	add(New(gen.Path(4), gen.Crown(3).Graph, ModeSelfLoopFactor))
	return pool
})

type fuzzCase struct {
	p     *Product
	order []oracleEdge
}

// checkWalks runs each walk of one window — under a cancellable and a
// background context — and fails unless every one yields exactly want.
func checkWalks(t *testing.T, what string, want []oracleEdge, walks map[string]func(yield func(v, w int) bool) error) {
	t.Helper()
	for name, walk := range walks {
		i := 0
		err := walk(func(v, w int) bool {
			if i >= len(want) || want[i].v != v || want[i].w != w {
				t.Fatalf("%s %s: edge %d is (%d,%d), oracle has %d edges", what, name, i, v, w, len(want))
			}
			i++
			return true
		})
		if err != nil {
			t.Fatalf("%s %s: %v", what, name, err)
		}
		if i != len(want) {
			t.Fatalf("%s %s: %d edges, oracle %d", what, name, i, len(want))
		}
	}
}

// batched adapts a batch walk to checkWalks' per-edge vocabulary.
func batched(walk func(yield func(batch []exec.Edge) bool) error) func(yield func(v, w int) bool) error {
	return func(yield func(v, w int) bool) error {
		return walk(func(batch []exec.Edge) bool {
			if len(batch) == 0 || len(batch) > exec.BatchLen {
				panic("batch size out of range")
			}
			for _, e := range batch {
				if !yield(e.V, e.W) {
					return false
				}
			}
			return true
		})
	}
}

// blockEdges walks block (r, c) of an R×C grid edge by edge through the
// batch block walk under a background context.  Shard s of n is block
// (s, 0) of n×1.
func blockEdges(p *Product, r, R, c, C int, yield func(v, w int) bool) error {
	return batched(func(y func([]exec.Edge) bool) error {
		return p.EachEdgeBlockBatchContext(context.Background(), r, R, c, C, y)
	})(yield)
}

// rangeEdges walks edges [lo, hi) of the canonical order edge by edge
// through the batch range walk under a background context.
func rangeEdges(p *Product, lo, hi int64, yield func(v, w int) bool) error {
	return batched(func(y func([]exec.Edge) bool) error {
		return p.EachEdgeRangeBatchContext(context.Background(), lo, hi, y)
	})(yield)
}

// blockRangeEdges walks edges [lo, hi) of block (r, c)'s order edge by
// edge through the batch block-range walk under a background context.
func blockRangeEdges(p *Product, r, R, c, C int, lo, hi int64, yield func(v, w int) bool) error {
	return batched(func(y func([]exec.Edge) bool) error {
		return p.EachEdgeBlockRangeBatchContext(context.Background(), r, R, c, C, lo, hi, y)
	})(yield)
}

// FuzzEdgeRange differentially tests every range and block walk against
// the definition-order oracle: the input picks a product from the
// small-factor pool, an offset, a limit and a block grid.  The range
// walk must equal the matching slice of the canonical order, the
// block-range walk the matching slice of the block's restriction and
// the block walk the whole restriction, each under a cancellable and a
// background context; the closed-form counts (NumEdges, BlockEdgeCount)
// must equal the oracle's lengths.  The run walk
// (EachEdgeBlockRangeRunContext) of the block range must yield the same
// edges as the batch walk, and priced, with the sum-only pricer
// (PriceBlockRangeContext) beside it, on each of the three windows under
// both contexts, it must also price them as Σ EdgeFourCyclesAt does.
func FuzzEdgeRange(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint32(1<<31), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint32(17), uint32(40), uint8(1), uint8(2), uint8(1), uint8(1))
	f.Add(uint8(11), uint32(5), uint32(9), uint8(2), uint8(2), uint8(3), uint8(4))
	f.Add(uint8(6), uint32(63), uint32(2), uint8(4), uint8(3), uint8(13), uint8(2))
	f.Fuzz(func(t *testing.T, pick uint8, offset, limit uint32, rows, cols, brow, bcol uint8) {
		pool := fuzzPool()
		fc := pool[int(pick)%len(pool)]
		p, order := fc.p, fc.order
		live, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Each walk runs under a cancellable and a background context;
		// walkBatch takes a different branch for each.
		both := func(walk func(ctx context.Context, y func([]exec.Edge) bool) error) map[string]func(yield func(v, w int) bool) error {
			walks := map[string]func(yield func(v, w int) bool) error{}
			for name, ctx := range map[string]context.Context{"cancellable": live, "background": context.Background()} {
				walks[name] = batched(func(y func([]exec.Edge) bool) error { return walk(ctx, y) })
			}
			return walks
		}

		n := int64(len(order))
		if p.NumEdges() != n {
			t.Fatalf("NumEdges %d, oracle %d", p.NumEdges(), n)
		}
		lo := int64(offset) % (n + 1)
		hi := lo + int64(limit)%(n-lo+1)
		checkWalks(t, "EachEdgeRangeBatchContext", order[lo:hi], both(func(ctx context.Context, y func([]exec.Edge) bool) error {
			return p.EachEdgeRangeBatchContext(ctx, lo, hi, y)
		}))
		fourWalkOf(t, "◊ range", p, 0, 1, 0, 1, lo, hi, order[lo:hi])

		R, C := 1+int(rows)%5, 1+int(cols)%7
		r, c := int(brow)%R, int(bcol)%C
		block := blockOf(order, p.numRows(), p.lastEdges(), r, R, c, C)
		bn := int64(len(block))
		count, err := p.BlockEdgeCount(r, R, c, C)
		if err != nil || count != bn {
			t.Fatalf("BlockEdgeCount(%d,%d,%d,%d) = %d, %v; oracle %d", r, R, c, C, count, err, bn)
		}
		blo := int64(offset) % (bn + 1)
		bhi := blo + int64(limit)%(bn-blo+1)
		checkWalks(t, "EachEdgeBlockRangeBatchContext", block[blo:bhi], both(func(ctx context.Context, y func([]exec.Edge) bool) error {
			return p.EachEdgeBlockRangeBatchContext(ctx, r, R, c, C, blo, bhi, y)
		}))
		runs := map[string]func(yield func(v, w int) bool) error{}
		for name, ctx := range map[string]context.Context{"cancellable": live, "background": context.Background()} {
			runs[name] = runEdges(t, "EachEdgeBlockRangeRunContext "+name, ctx == live, func(y func(Run) bool) error {
				return p.EachEdgeBlockRangeRunContext(ctx, r, R, c, C, blo, bhi, nil, y)
			})
		}
		checkWalks(t, "EachEdgeBlockRangeRunContext", block[blo:bhi], runs)
		checkWalks(t, "EachEdgeBlockBatchContext", block, both(func(ctx context.Context, y func([]exec.Edge) bool) error {
			return p.EachEdgeBlockBatchContext(ctx, r, R, c, C, y)
		}))
		fourWalkOf(t, "◊ block", p, r, R, c, C, 0, bn, block)
		fourWalkOf(t, "◊ block range", p, r, R, c, C, blo, bhi, block[blo:bhi])
	})
}

// walkAllocBound caps the allocations of one walk of each shape.  A walk
// resolves its factor state once, so the count is a small constant:
// independent of the product's size and of how many rows it walks.  The
// ◊ walk ("four") and the priced walk ("priced", a sum-only pricing of
// the whole product and a priced run walk of a block range) resolve
// their stripe and anchor state once too, never per row or per prefix
// pair.
var walkAllocBound = map[string]float64{
	"range":       12,
	"mid-row":     12,
	"blocks2x3":   48,
	"block-range": 12,
	"parallel":    32,
	"four":        16,
	"priced":      24,
	"runs":        12,
}

// walkAllocs measures each walk shape's allocations on p.
func walkAllocs(t *testing.T, p *Product) map[string]float64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got int64
	count := func(batch []exec.Edge) bool {
		got += int64(len(batch))
		return true
	}
	check := func(shape string, want int64) {
		if got != want {
			t.Fatalf("%s walk streamed %d edges, want %d", shape, got, want)
		}
		got = 0
	}
	n := p.NumEdges()
	mid := p.termPer[0]/2 + 1 // inside the first row
	bcount, err := p.BlockEdgeCount(1, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	blo := bcount/3 + 1
	sinks := make([]countBatchSink, 2)
	walks := map[string]func() int64{
		"range": func() int64 {
			p.EachEdgeRangeBatchContext(ctx, 0, n, count)
			return n
		},
		"mid-row": func() int64 {
			p.EachEdgeRangeBatchContext(ctx, mid, n, count)
			return n - mid
		},
		"blocks2x3": func() int64 {
			for r := 0; r < 2; r++ {
				for c := 0; c < 3; c++ {
					p.EachEdgeBlockBatchContext(ctx, r, 2, c, 3, count)
				}
			}
			return n
		},
		"block-range": func() int64 {
			p.EachEdgeBlockRangeBatchContext(ctx, 1, 2, 2, 3, blo, bcount, count)
			return bcount - blo
		},
		"parallel": func() int64 {
			err := p.StreamEdgesParallelContext(ctx, 2, func(s int) exec.Sink { return &sinks[s] })
			if err != nil {
				t.Fatal(err)
			}
			got = sinks[0].n + sinks[1].n
			sinks[0].n, sinks[1].n = 0, 0
			return n
		},
		"four": func() int64 {
			if sum, want := p.GlobalFourCyclesViaEdges(), p.GlobalFourCycles(); sum != want {
				t.Fatalf("GlobalFourCyclesViaEdges %d, closed form %d", sum, want)
			}
			got = n // the sum covers every edge or it would not match
			return n
		},
		"runs": func() int64 {
			if err := p.EachEdgeBlockRangeRunContext(ctx, 0, 1, 0, 1, 0, n, nil, func(r Run) bool {
				got += int64(r.Hi - r.Lo)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return n
		},
		"priced": func() int64 {
			sum, err := p.PriceBlockRangeContext(ctx, 0, 1, 0, 1, 0, n)
			if want := 4 * p.GlobalFourCycles(); err != nil || sum != want {
				t.Fatalf("priced Σ◊ %d, %v; 4·□ %d", sum, err, want)
			}
			if err := p.EachEdgeBlockRangeRunContext(ctx, 1, 2, 2, 3, blo, bcount, &sum, func(r Run) bool {
				got += int64(r.Hi - r.Lo)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return bcount - blo
		},
	}
	out := map[string]float64{}
	for shape, walk := range walks {
		out[shape] = testing.AllocsPerRun(5, func() { check(shape, walk()) })
	}
	return out
}

// countBatchSink counts a stream's edges, one add per batch.
type countBatchSink struct{ n int64 }

func (c *countBatchSink) EdgeBatch(batch []exec.Edge) error {
	c.n += int64(len(batch))
	return nil
}

// TestWalkAllocsBounded: every walk shape — a full range, a span that
// starts mid-row (as a ranged stream or a resumed lease does), a 2×3 block
// sweep, a block range from a mid-row offset, the parallel batch stream,
// the ◊ sum, the run walk and the priced walk — allocates a fixed, small number of times, on a K = 1
// product and a K = 2 chain, and the same bound holds for products 4×
// larger.
// Rebuilding a factor's edge list per row or per prefix pair instead of
// per walk scales the count with the product and fails here.
func TestWalkAllocsBounded(t *testing.T) {
	sf := func(nu, nw, m int) *graph.Bipartite { return gen.ConnectedBipartiteScaleFree(nu, nw, m, 7) }
	k1 := func(nu, nw, m int) (*Product, error) {
		b := sf(nu, nw, m)
		return NewChainWithParts(b.Graph, ModeSelfLoopFactor, b)
	}
	k2 := func(nu, nw, m int) (*Product, error) {
		b := sf(nu, nw, m)
		return NewChainWithParts(b.Graph, ModeSelfLoopFactor, b, gen.Crown(4))
	}
	for _, c := range []struct {
		name         string
		build        func(nu, nw, m int) (*Product, error)
		small, large [3]int
	}{
		{"k1", k1, [3]int{12, 24, 40}, [3]int{24, 48, 80}},
		{"k2", k2, [3]int{8, 16, 24}, [3]int{16, 32, 48}},
	} {
		small, err := c.build(c.small[0], c.small[1], c.small[2])
		if err != nil {
			t.Fatal(err)
		}
		large, err := c.build(c.large[0], c.large[1], c.large[2])
		if err != nil {
			t.Fatal(err)
		}
		if r := float64(large.NumEdges()) / float64(small.NumEdges()); r < 3.5 {
			t.Fatalf("%s: large product only %.1fx the small one", c.name, r)
		}
		for size, p := range map[string]*Product{"small": small, "large": large} {
			for shape, allocs := range walkAllocs(t, p) {
				t.Logf("%s/%s %s: %.0f allocs over %d edges", c.name, size, shape, allocs, p.NumEdges())
				if allocs > walkAllocBound[shape] {
					t.Errorf("%s/%s %s walk: %.0f allocations, bound %.0f", c.name, size, shape, allocs, walkAllocBound[shape])
				}
			}
		}
	}
}

// seekEdge is seek over the full canonical order.
func (p *Product) seekEdge(k int64) (t, row int, off int64) { return p.seek(p.whole(), k) }
