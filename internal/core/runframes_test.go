package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/wire"
)

// The run writer (wire.Writer over the run walk) against the per-edge
// frame writer (wire.PutFrame over the batch walk): the same window must
// frame to the same bytes, however its runs are cut and wherever the
// walk stops.  The test lives with the walker because its products are
// the walker's oracle chains.

var (
	frameOnce     sync.Once
	frameProducts []core.NamedProduct
)

// runFrameProducts is every chainOracleCases product, whose terms each
// fit in one frame, plus star3 ⊗ K50,50, whose terms span several
// 4096-edge frames and whose runs are longer than exec.BatchLen.
func runFrameProducts(tb testing.TB) []core.NamedProduct {
	tb.Helper()
	frameOnce.Do(func() {
		ps := core.ChainOracleProducts(tb)
		big, err := core.New(gen.Star(3), gen.CompleteBipartite(50, 50).Graph, core.ModeSelfLoopFactor)
		if err != nil {
			tb.Fatal(err)
		}
		frameProducts = append(ps, core.NamedProduct{Name: "star3_k50x50", P: big})
	})
	if len(frameProducts) == 0 {
		tb.Fatal("no run-frame products")
	}
	return frameProducts
}

// frameCase is one differential cell: edges [lo, hi) of block (r, c) of
// an R×C grid, framed by a writer that declares the stream's end at hi
// but stops after stop edges, with flush cadence every (0: none), under
// a cancellable context or not, with each run fed whole or, with split,
// cut into pieces.
type frameCase struct {
	r, R, c, C   int
	lo, hi, stop int64
	every        int64
	cancellable  bool
	split        bool
	splitSeed    uint32
}

// putFrames frames edges, which sit at offsets [lo, lo+len(edges)) of a
// stream with hard cuts cuts, with PutFrame: a frame closes at every
// grid boundary and at the edges' end.
func putFrames(cuts []int64, lo int64, edges []exec.Edge) []byte {
	var out []byte
	buf := make([]byte, wire.MaxFrameLen)
	hi := lo + int64(len(edges))
	for at := lo; at < hi; {
		_, end := wire.FrameBounds(cuts, at)
		end = min(end, hi)
		out = append(out, buf[:wire.PutFrame(buf, at, edges[at-lo:end-lo])]...)
		at = end
	}
	return out
}

// writeLog keeps every Write, to check that frames reach the
// destination whole.
type writeLog struct{ writes [][]byte }

func (l *writeLog) Write(b []byte) (int, error) {
	l.writes = append(l.writes, append([]byte(nil), b...))
	return len(b), nil
}

// checkRunFrames fails unless the run writer's bytes for fc equal
// PutFrame's framing of the batch walk's edges [lo, lo+stop) of the same
// block, every Write holds whole frames, the writer counts stop edges,
// and its flush cadence reports no more than it framed.
func checkRunFrames(t testing.TB, name string, p *core.Product, fc frameCase) {
	t.Helper()
	cuts, err := p.BlockTermEdgeStarts(fc.r, fc.R, fc.c, fc.C)
	if err != nil {
		t.Fatal(err)
	}
	var edges []exec.Edge
	if err := p.EachEdgeBlockRangeBatchContext(context.Background(), fc.r, fc.R, fc.c, fc.C, fc.lo, fc.lo+fc.stop, func(b []exec.Edge) bool {
		edges = append(edges, b...)
		return true
	}); err != nil {
		t.Fatalf("%s %+v: batch walk: %v", name, fc, err)
	}
	want := putFrames(cuts, fc.lo, edges)

	ctx := context.Background()
	if fc.cancellable {
		live, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = live
	}
	var dst writeLog
	var flushed int64
	w := wire.NewWriter(&dst, cuts, fc.lo, fc.hi, fc.every, func(n int64) {
		if n < fc.every {
			t.Fatalf("%s %+v: flushed after %d edges, cadence %d", name, fc, n, fc.every)
		}
		flushed += n
	})
	defer w.Release()
	rng := fc.splitSeed
	written := int64(0)
	err = p.EachEdgeBlockRangeRunContext(ctx, fc.r, fc.R, fc.c, fc.C, fc.lo, fc.hi, nil, func(r core.Run) bool {
		for r.Lo < r.Hi {
			piece := r
			piece.Hi = piece.Lo + int(min(int64(piece.Hi-piece.Lo), fc.stop-written))
			if fc.split {
				rng = rng*1664525 + 1013904223
				piece.Hi = min(piece.Hi, piece.Lo+1+int(rng>>24)%9)
			}
			if piece.Lo == piece.Hi {
				return false
			}
			if err := w.Run(piece); err != nil {
				t.Fatalf("%s %+v: Run: %v", name, fc, err)
			}
			written += int64(piece.Hi - piece.Lo)
			r.Lo = piece.Hi
		}
		return written < fc.stop
	})
	if err != nil {
		t.Fatalf("%s %+v: run walk: %v", name, fc, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Edges() != fc.stop || flushed > fc.stop {
		t.Fatalf("%s %+v: writer framed %d edges and flushed %d, want %d", name, fc, w.Edges(), flushed, fc.stop)
	}
	got := bytes.Join(dst.writes, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %+v: run writer's %d bytes differ from PutFrame's %d", name, fc, len(got), len(want))
	}
	next := fc.lo
	for i, b := range dst.writes {
		_, after, trailing, err := wire.Decode(b, next, nil)
		if err != nil || trailing != 0 {
			t.Fatalf("%s %+v: write %d is not whole frames: %d trailing bytes, %v", name, fc, i, trailing, err)
		}
		next = after
	}
}

// randomFrameCase draws a block × range window of p: a start on the
// frame grid a third of the time, else anywhere; a stop at the window's
// end a third of the time, else anywhere in it (mid-run and mid-frame
// as often as not).
func randomFrameCase(t testing.TB, p *core.Product, rng *rand.Rand) frameCase {
	fc := frameCase{R: 1 + rng.Intn(4), C: 1 + rng.Intn(5)}
	fc.r, fc.c = rng.Intn(fc.R), rng.Intn(fc.C)
	n, err := p.BlockEdgeCount(fc.r, fc.R, fc.c, fc.C)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := p.BlockTermEdgeStarts(fc.r, fc.R, fc.c, fc.C)
	if err != nil {
		t.Fatal(err)
	}
	fc.lo = rng.Int63n(n + 1)
	if rng.Intn(3) == 0 && fc.lo < n {
		fc.lo, _ = wire.FrameBounds(cuts, fc.lo)
	}
	fc.hi = fc.lo + rng.Int63n(n-fc.lo+1)
	fc.stop = fc.hi - fc.lo
	if rng.Intn(3) != 0 {
		fc.stop = rng.Int63n(fc.stop + 1)
	}
	switch rng.Intn(3) {
	case 1:
		fc.every = 1 + rng.Int63n(300)
	case 2:
		fc.every = 16384
	}
	fc.cancellable, fc.split, fc.splitSeed = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Uint32()
	return fc
}

// TestRunFramesMatchPutFrame: on 80 random block × range windows of each
// run-frame product, and on each product's whole stream, the run writer
// frames exactly what PutFrame frames of the batch walk.  On star3 ⊗
// K50,50 it also stops where the last frame's two-byte count must shrink
// to one byte, from a start on the grid and off it, whole runs and split.
func TestRunFramesMatchPutFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ps := runFrameProducts(t)
	for _, np := range ps {
		n := np.P.NumEdges()
		checkRunFrames(t, np.Name, np.P, frameCase{R: 1, C: 1, hi: n, stop: n})
		for range 80 {
			checkRunFrames(t, np.Name, np.P, randomFrameCase(t, np.P, rng))
		}
	}
	big := ps[len(ps)-1]
	n := big.P.NumEdges()
	for _, lo := range []int64{0, 1234, wire.FrameEdges} {
		for _, split := range []bool{false, true} {
			fc := frameCase{R: 1, C: 1, lo: lo, hi: n, stop: 2*wire.FrameEdges - lo%wire.FrameEdges + 5, every: 16384, cancellable: true, split: split}
			checkRunFrames(t, big.Name, big.P, fc)
		}
	}
}

// TestRunWriterRejectsPastEnd: a run that would cross the declared
// stream end is refused whole, and the frames before it stand.
func TestRunWriterRejectsPastEnd(t *testing.T) {
	p := runFrameProducts(t)[0].P
	cuts := p.TermEdgeStarts()
	var runs []core.Run
	kept := map[*core.Stripe]*core.Stripe{}
	if err := p.EachEdgeBlockRangeRunContext(context.Background(), 0, 1, 0, 1, 0, p.NumEdges(), nil, func(r core.Run) bool {
		if kept[r.Stripe] == nil { // a stripe dies with its walk
			kept[r.Stripe] = &core.Stripe{Edges: slices.Clone(r.Stripe.Edges)}
		}
		r.Stripe = kept[r.Stripe]
		runs = append(runs, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	first := int64(runs[0].Hi - runs[0].Lo)
	var dst bytes.Buffer
	w := wire.NewWriter(&dst, cuts, 0, first+1, 0, nil)
	defer w.Release()
	if err := w.Run(runs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(runs[1]); err == nil || runs[1].Hi-runs[1].Lo < 2 {
		t.Fatalf("run of %d edges past an end 1 edge away: err %v", runs[1].Hi-runs[1].Lo, err)
	}
	if err := w.Flush(); err != nil || w.Edges() != first {
		t.Fatalf("after the refused run: %d edges, %v; want %d", w.Edges(), err, first)
	}
	if n, _, trailing, err := wire.Decode(dst.Bytes(), 0, nil); n != first || trailing != 0 || err != nil {
		t.Fatalf("body decodes to %d edges, %d trailing, %v; want %d", n, trailing, err, first)
	}
}

// FuzzRunFrames is TestRunFramesMatchPutFrame's differential check on
// fuzzed windows: the input picks a run-frame product, a block grid,
// a range, a stop, a flush cadence, the context and the run splitting.
func FuzzRunFrames(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint32(0), uint32(1<<31), uint32(1<<31), uint16(0), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(3), uint8(1), uint8(2), uint32(17), uint32(300), uint32(100), uint16(7), uint8(3))
	f.Add(uint8(10), uint8(0), uint8(0), uint8(0), uint8(0), uint32(5000), uint32(90000), uint32(12000), uint16(1000), uint8(1))
	f.Add(uint8(10), uint8(1), uint8(1), uint8(1), uint8(0), uint32(4096), uint32(20000), uint32(4097), uint16(0), uint8(2))
	// Windows across term boundaries of the K = 3 and K = 4 oracle
	// chains, whose terms fuse different tails.
	f.Add(uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint32(180), uint32(230), uint32(230), uint16(0), uint8(0))
	f.Add(uint8(7), uint8(0), uint8(0), uint8(0), uint8(0), uint32(75), uint32(100), uint32(60), uint16(7), uint8(3))
	f.Add(uint8(6), uint8(1), uint8(1), uint8(1), uint8(0), uint32(10), uint32(40), uint32(40), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, pick, rows, cols, brow, bcol uint8, offset, limit, stop uint32, every uint16, flags uint8) {
		ps := runFrameProducts(t)
		np := ps[int(pick)%len(ps)]
		fc := frameCase{R: 1 + int(rows)%5, C: 1 + int(cols)%7}
		fc.r, fc.c = int(brow)%fc.R, int(bcol)%fc.C
		n, err := np.P.BlockEdgeCount(fc.r, fc.R, fc.c, fc.C)
		if err != nil {
			t.Fatal(err)
		}
		fc.lo = int64(offset) % (n + 1)
		fc.hi = fc.lo + int64(limit)%(n-fc.lo+1)
		fc.stop = int64(stop) % (fc.hi - fc.lo + 1)
		fc.every = int64(every)
		fc.cancellable, fc.split, fc.splitSeed = flags&1 != 0, flags&2 != 0, uint32(flags)*2654435761
		checkRunFrames(t, np.Name, np.P, fc)
	})
}
