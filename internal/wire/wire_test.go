package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/spec"
)

// testProduct is a small product with its canonical order.
type testProduct struct {
	p     *core.Product
	order []exec.Edge
}

var (
	poolOnce sync.Once
	pool     []testProduct
	poolErr  error
)

// productPool returns the round-trip products, built once per process:
// a three-level chain whose delta pairs are almost all one byte each
// (chain-bin's shape, ~2.0 B/edge) and a path ⊗ scale-free product whose
// pairs are mostly multi-byte (Table I's shape, ~3.6 B/edge).
func productPool(tb testing.TB) []testProduct {
	tb.Helper()
	poolOnce.Do(func() {
		for _, fs := range [][]string{{"crown4", "path3", "crown3"}, {"path4", "sf300x300x500"}} {
			p, err := spec.Spec{Factors: fs, Mode: spec.ModeSelfLoop}.WithDefaults().Build()
			if err != nil {
				poolErr = err
				return
			}
			order := make([]exec.Edge, 0, p.NumEdges())
			p.EachEdge(func(v, w int) bool {
				order = append(order, exec.Edge{V: v, W: w})
				return true
			})
			pool = append(pool, testProduct{p: p, order: order})
		}
	})
	if poolErr != nil {
		tb.Fatal(poolErr)
	}
	return pool
}

// encode frames edges, which sit at stream offsets [lo, lo+len(edges))
// of a stream with hard cuts cuts, as serve's encoder does: a frame
// closes at every grid boundary and at the range's end.
func encode(cuts []int64, lo int64, edges []exec.Edge) []byte {
	var out []byte
	buf := make([]byte, MaxFrameLen)
	hi := lo + int64(len(edges))
	for at := lo; at < hi; {
		_, end := FrameBounds(cuts, at)
		end = min(end, hi)
		n := PutFrame(buf, at, edges[at-lo:end-lo])
		out = append(out, buf[:n]...)
		at = end
	}
	return out
}

// decodeAll runs Decode and collects what it yields, failing on a yield
// that is not one whole frame.
func decodeAll(t *testing.T, payload []byte, start int64) (got []exec.Edge, edges, next int64, trailing int, err error) {
	t.Helper()
	edges, next, trailing, err = Decode(payload, start, func(frame []exec.Edge) {
		if len(frame) < 1 || len(frame) > FrameEdges {
			t.Fatalf("yielded %d edges, not one frame", len(frame))
		}
		got = append(got, frame...)
	})
	return got, edges, next, trailing, err
}

// errText strips a decoder's error prefix, so the reference decoder's
// messages compare with Decode's.
func errText(err error, prefix string) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if !strings.HasPrefix(s, prefix) {
		return "unprefixed error: " + s
	}
	return strings.TrimPrefix(s, prefix)
}

// checkDecode holds Decode to the reference decoder and to its own
// contract on one payload, and returns the edges it decoded.
func checkDecode(t *testing.T, payload []byte, start int64) []exec.Edge {
	t.Helper()
	var want []exec.Edge
	wn, wnext, wtrail, werr := referenceDecode(payload, start, func(v, w int) {
		want = append(want, exec.Edge{V: v, W: w})
	})
	got, n, next, trailing, err := decodeAll(t, payload, start)
	if n != wn || next != wnext || trailing != wtrail {
		t.Fatalf("start %d: edges/next/trailing %d/%d/%d, reference %d/%d/%d", start, n, next, trailing, wn, wnext, wtrail)
	}
	if g, w := errText(err, "wire: bad frame: "), errText(werr, "serve: bad wire frame: "); g != w {
		t.Fatalf("start %d: error %q, reference %q", start, g, w)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("start %d: yielded edges differ from the reference's", start)
	}
	if int64(len(got)) != n {
		t.Fatalf("start %d: yielded %d edges, reported %d", start, len(got), n)
	}
	if err == nil && next != start+n {
		t.Fatalf("start %d: next %d after %d edges", start, next, n)
	}
	// The complete-frame prefix decodes again, whole and unchanged.
	again, kn, _, ktrail, kerr := decodeAll(t, payload[:len(payload)-trailing], start)
	if kerr != nil || ktrail != 0 || kn != n || !slices.Equal(again, got) {
		t.Fatalf("start %d: complete prefix re-decodes to %d edges, trailing %d, err %v (want %d, 0, nil)", start, kn, ktrail, kerr, n)
	}
	return got
}

// roundTripEdges caps one round trip's range.  Two frames cross a term
// cut often enough, and a cheap iteration keeps the fuzzer's
// minimization of a new input quick: it reruns the whole body for every
// candidate.
const roundTripEdges = 2 * FrameEdges

// checkRoundTrip encodes edges from stream offset lo and decodes them
// back.
func checkRoundTrip(t *testing.T, cuts []int64, lo int64, edges []exec.Edge) {
	t.Helper()
	payload := encode(cuts, lo, edges)
	if got := checkDecode(t, payload, lo); !slices.Equal(got, edges) {
		t.Fatalf("decode(encode) from %d: %d edges back, %d in", lo, len(got), len(edges))
	}
}

// FuzzDecodeWire holds Decode to the reference decoder on arbitrary
// bytes and checks that decode ∘ encode is the identity on a range of a
// small product and on the tail of one of its lease blocks.
func FuzzDecodeWire(f *testing.F) {
	for _, tp := range productPool(f) {
		// Two frames across a grid boundary from an unaligned offset, so the
		// first frame is short: once whole, once cut mid-frame, once with a
		// bit flipped.
		lo := int64(FrameEdges - 300)
		payload := encode(tp.p.TermEdgeStarts(), lo, tp.order[lo:lo+600])
		flipped := bytes.Clone(payload)
		flipped[len(flipped)/2] ^= 0x10
		for _, seed := range [][]byte{payload, payload[:len(payload)*2/3], flipped} {
			f.Add(seed, lo, uint32(lo), uint32(FrameEdges+1), uint8(4))
		}
	}
	f.Add([]byte{}, int64(0), uint32(0), uint32(0), uint8(1))
	f.Fuzz(func(t *testing.T, payload []byte, start int64, lo, n uint32, grid uint8) {
		if start < 0 {
			start = ^start // every start ≥ 0
		}
		checkDecode(t, payload, start)
		// A random start rarely matches the first frame's, so decode from
		// the start the payload names too: that reaches the frame bodies.
		if _, k := binary.Uvarint(payload); k > 0 {
			if s, m := binary.Uvarint(payload[k:]); m > 0 && int64(s) >= 0 {
				checkDecode(t, payload, int64(s))
			}
		}

		pool := productPool(t)
		tp := pool[int(grid)%len(pool)]
		total := int64(len(tp.order))
		a := int64(lo) % (total + 1)
		b := a + int64(n)%(min(total-a, roundTripEdges)+1)
		checkRoundTrip(t, tp.p.TermEdgeStarts(), a, tp.order[a:b])

		// A lease block resumed at an offset: block-local cuts and offsets.
		R, C := 1+int(grid/2)%3, 1+int(grid/6)%4
		r, c := int(lo)%R, int(n)%C
		cuts, err := tp.p.BlockTermEdgeStarts(r, R, c, C)
		if err != nil {
			t.Fatal(err)
		}
		count := cuts[len(cuts)-1]
		off := int64(n) % (count + 1)
		var block []exec.Edge
		if err := tp.p.EachEdgeBlockRangeBatchContext(context.Background(), r, R, c, C, off, min(count, off+roundTripEdges), func(batch []exec.Edge) bool {
			block = append(block, batch...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, cuts, off, block)
	})
}

// TestFrameBounds holds the grid rule to a direct enumeration of the
// grid — every hard cut, plus every FrameEdges multiple past the cut
// before it — at every offset of both pool products, whole and as a
// lease block, and pins it on hand-worked cuts.
func TestFrameBounds(t *testing.T) {
	check := func(name string, cuts []int64, total int64) {
		var grid []int64
		prev := int64(0)
		for _, c := range append(slices.Clone(cuts), total+FrameEdges) {
			for g := prev; g < c; g += FrameEdges {
				grid = append(grid, g)
			}
			prev = max(prev, c)
		}
		grid = append(grid, prev)
		for x := int64(0); x <= total; x++ {
			i, _ := slices.BinarySearch(grid, x+1) // first boundary > x
			lo, hi := FrameBounds(cuts, x)
			if lo != grid[i-1] || hi != grid[i] {
				t.Fatalf("%s: FrameBounds(%d) = [%d,%d), grid says [%d,%d)", name, x, lo, hi, grid[i-1], grid[i])
			}
		}
	}
	for i, tp := range productPool(t) {
		check(fmt.Sprintf("product %d", i), tp.p.TermEdgeStarts(), tp.p.NumEdges())
		cuts, err := tp.p.BlockTermEdgeStarts(0, 2, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("block of product %d", i), cuts, cuts[len(cuts)-1])
	}

	const F = FrameEdges
	cuts := []int64{0, F + 100, F + 100, 3*F + 100}
	for _, c := range []struct{ x, lo, hi int64 }{
		{0, 0, F},
		{F - 1, 0, F},
		{F, F, F + 100},
		{F + 100, F + 100, 2*F + 100}, // past an empty term
		{3*F + 99, 2*F + 100, 3*F + 100},
		{3*F + 100, 3*F + 100, 4*F + 100}, // the stream's end
	} {
		if lo, hi := FrameBounds(cuts, c.x); lo != c.lo || hi != c.hi {
			t.Errorf("FrameBounds(%d) = [%d,%d), want [%d,%d)", c.x, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := FrameBounds(nil, 5*F+7); lo != 5*F || hi != 6*F {
		t.Errorf("no cuts: FrameBounds = [%d,%d), want [%d,%d)", lo, hi, 5*F, 6*F)
	}
}
