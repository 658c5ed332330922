package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"kronbip/internal/core"
)

// Writer frames a run walk (core's EachEdgeBlockRangeRunContext) into
// bin frames, byte for byte the frames PutFrame makes of the same edges
// on the same grid, without materializing an edge.
//
// Under one prefix pair every edge is (V+x, W+y) over the stripe's
// oriented edges (x, y), so the delta pair between two neighbouring
// edges of a run is the stripe's own delta pair, whatever the prefix
// pair.  A Writer therefore encodes a stripe's delta pairs once, with
// the byte offset of each digit's pair, when a run of a stripe other
// than the last run's arrives, and writes a run's interior by copying a
// slice of those bytes.  A walk delivers each term's runs in a row, all
// of one stripe, so it resolves one table per term.  A Writer frames
// one walk: the walk's stripes do not outlive it, so neither does the
// key.  It computes varints only
// for each frame's header and first edge and for each run's first
// delta, from the edge before it.
//
// A frame's header goes out before its edges, with the count the frame
// will hold on the grid, clipped at the stream's end.  A walk that stops
// short (a cancellation or a consumer error) leaves its last frame open;
// Flush rewrites that frame's count to the edges it holds, so the body
// still decodes to exactly the edges written.  Encoded frames collect in
// the Writer's buffer and reach the destination only whole, in writes of
// about 128 KiB and at the flush cadence.
//
// A Writer comes from a pool (NewWriter) with its buffer and delta
// table, and goes back with Release.
type Writer struct {
	dst        io.Writer
	buf        []byte // writeTarget+MaxFrameLen bytes: closed frames, then the open one
	off        int    // bytes of buf in use
	cuts       []int64
	start, end int64 // the stream's extent
	pos        int64 // stream offset of the next edge
	fstart     int64 // the last frame's first edge's offset
	fend       int64 // the last frame's end; pos == fend: no frame open
	fat, hlen  int   // the last frame's byte offset in buf and its count's length
	pv, pw     int   // the last edge written
	// The flush cadence: once every edges have been framed since the
	// last call, the next frame boundary drains buf and calls flushed.
	every   int64
	since   int64
	flushed func(edges int64)
	tab     stripeDeltas // the last run's stripe's
}

// stripeDeltas is one stripe's delta pairs: bytes holds, for every
// digit d ≥ 1 in order, the zigzag varint pair of digit d's edge minus
// digit d-1's; at[d] is where digit d's pair starts (at[0] = at[1] = 0)
// and at[Len] = len(bytes).  key is the stripe it was resolved for.
type stripeDeltas struct {
	key   *core.Stripe
	bytes []byte
	at    []int
}

// writeTarget is the accumulation high-water mark: once this many
// encoded bytes are pending at a frame boundary, they go to the
// destination in one Write.
const writeTarget = 1 << 17

// writerPool recycles Writers with their buffers and delta tables.
var writerPool = sync.Pool{New: func() any {
	// Headroom past the high-water mark for one worst-case frame, so an
	// open frame always fits.
	return &Writer{buf: make([]byte, writeTarget+MaxFrameLen)}
}}

// NewWriter returns a pooled Writer for edges [start, end) of a stream
// whose hard cuts are cuts (core's TermEdgeStarts, or BlockTermEdgeStarts
// for a block lease), writing to dst.  With every > 0, once every edges
// have been framed since the last time, the next frame boundary drains
// the buffer to dst and then calls flushed (when non-nil) with their
// count.
func NewWriter(dst io.Writer, cuts []int64, start, end, every int64, flushed func(edges int64)) *Writer {
	w := writerPool.Get().(*Writer)
	*w = Writer{
		dst: dst, buf: w.buf, cuts: cuts,
		start: start, end: end, pos: start, fstart: start, fend: start,
		every: every, flushed: flushed,
		tab: stripeDeltas{bytes: w.tab.bytes[:0], at: w.tab.at[:0]},
	}
	return w
}

// Release returns w to the pool; w must not be used after.
func (w *Writer) Release() {
	w.dst, w.cuts, w.flushed, w.tab.key = nil, nil, nil, nil
	writerPool.Put(w)
}

// Edges is how many edges w has framed.
func (w *Writer) Edges() int64 { return w.pos - w.start }

// Run frames the run's edges, which sit at the stream's next offsets.
// It returns the destination's error, or an error for a run past the
// stream's end, which it writes nothing of.
func (w *Writer) Run(r core.Run) error {
	lo, hi := r.Lo, r.Hi
	if int64(hi-lo) > w.end-w.pos {
		return fmt.Errorf("wire: run of %d edges past the stream end at %d", hi-lo, w.end)
	}
	if lo >= hi {
		return nil
	}
	t := w.deltas(r.Stripe)
	for lo < hi {
		x, y := r.Stripe.Edge(lo)
		ev, ew := r.V+x, r.W+y
		if w.pos == w.fend {
			w.open()
			w.off += binary.PutUvarint(w.buf[w.off:], uint64(ev))
			w.off += binary.PutUvarint(w.buf[w.off:], uint64(ew))
		} else {
			w.off += putDelta(w.buf[w.off:], ev-w.pv, ew-w.pw)
		}
		// The digits after the first, up to the run's or the frame's end,
		// are the stripe's own delta pairs.
		k := min(hi-lo-1, int(w.fend-w.pos-1))
		w.off += copy(w.buf[w.off:], t.bytes[t.at[lo+1]:t.at[lo+1+k]])
		lo += 1 + k
		w.pos += int64(1 + k)
		x, y = r.Stripe.Edge(lo - 1)
		w.pv, w.pw = r.V+x, r.W+y
		if w.pos == w.fend {
			if err := w.closed(); err != nil {
				return err
			}
		}
	}
	return nil
}

// deltas returns s's delta table, resolving it when the last run was
// of another stripe.
func (w *Writer) deltas(s *core.Stripe) *stripeDeltas {
	if w.tab.key != s {
		w.tab.resolve(s)
	}
	return &w.tab
}

// resolve encodes s's delta pairs into t.
func (t *stripeDeltas) resolve(s *core.Stripe) {
	n := s.Len()
	t.key, t.bytes, t.at = s, t.bytes[:0], append(t.at[:0], 0)
	var pair [2 * binary.MaxVarintLen64]byte
	px, py := 0, 0
	for d := 0; d < n; d++ {
		x, y := s.Edge(d)
		if d > 0 {
			t.at = append(t.at, len(t.bytes))
			t.bytes = append(t.bytes, pair[:putDelta(pair[:], x-px, y-py)]...)
		}
		px, py = x, y
	}
	t.at = append(t.at, len(t.bytes))
}

// putDelta writes the zigzag varint pair of delta (dv, dw) to b and
// returns its length: two stores when both fit one byte, as they almost
// always do, else binary.PutVarint's bytes.
func putDelta(b []byte, dv, dw int) int {
	uv := uint64(int64(dv)<<1) ^ uint64(int64(dv)>>63)
	uw := uint64(int64(dw)<<1) ^ uint64(int64(dw)>>63)
	if uv|uw < 0x80 {
		b[0], b[1] = byte(uv), byte(uw)
		return 2
	}
	i := binary.PutUvarint(b, uv)
	return i + binary.PutUvarint(b[i:], uw)
}

// open starts the frame holding stream offset pos: its header, with the
// count the grid gives it, clipped at the stream's end.
func (w *Writer) open() {
	_, grid := FrameBounds(w.cuts, w.pos)
	w.fstart, w.fend, w.fat = w.pos, min(grid, w.end), w.off
	w.hlen = binary.PutUvarint(w.buf[w.off:], uint64(w.fend-w.pos))
	w.off += w.hlen
	w.off += binary.PutUvarint(w.buf[w.off:], uint64(w.pos))
}

// closed books a frame that has just filled: it drains the buffer past
// its high-water mark, and at the flush cadence drains it and reports.
func (w *Writer) closed() error {
	w.since += w.fend - w.fstart
	if w.off >= writeTarget {
		if err := w.drain(); err != nil {
			return err
		}
	}
	if w.every > 0 && w.since >= w.every {
		n := w.since
		w.since = 0
		if err := w.drain(); err != nil {
			return err
		}
		if w.flushed != nil {
			w.flushed(n)
		}
	}
	return nil
}

// Flush closes an open frame where the stream stopped — a cancelled
// walk or a consumer error leaves one short of its header's count — and
// drains the buffer to the destination.
func (w *Writer) Flush() error {
	if w.pos != w.fend {
		w.shorten()
	}
	return w.drain()
}

// shorten rewrites the open frame's count to the edges it holds, moving
// the frame's body down when the shorter count takes fewer bytes, and
// closes it.
func (w *Writer) shorten() {
	var count [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(count[:], uint64(w.pos-w.fstart))
	if m != w.hlen {
		copy(w.buf[w.fat+m:], w.buf[w.fat+w.hlen:w.off])
		w.off -= w.hlen - m
	}
	copy(w.buf[w.fat:], count[:m])
	w.fend = w.pos
}

// drain hands the buffered frames to the destination.
func (w *Writer) drain() error {
	if w.off == 0 {
		return nil
	}
	_, err := w.dst.Write(w.buf[:w.off])
	w.off = 0
	return err
}
