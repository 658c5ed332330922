// Package wire is the binary edge-stream format ("bin") that
// `kronbip serve` sends and its consumers read: the frame layout, the
// frame grid, the frame writer and the decoder, plus the HTTP header and
// trailer names a consumer of a stream or a lease needs.  The server
// (internal/serve) and its clients (internal/distgen, perfbench) share
// this one codec, so a client never imports the server.
//
// Text rendering dominates the edge stream's cost, so the binary
// encoding trades strconv for varints: edges travel in self-contained
// frames of at most FrameEdges (v, w) pairs, delta-encoded within the
// frame.
//
// Frame layout (all integers are encoding/binary varints):
//
//	uvarint  count       edges in this frame (1..FrameEdges)
//	uvarint  start       stream offset of the frame's first edge
//	uvarint  v0, w0      first edge, absolute
//	varint   Δv, Δw      each later edge, zigzag delta from its
//	                     predecessor (count-1 pairs)
//
// Deltas reset at every frame, so any frame decodes alone: a consumer
// that kept the complete frames of a dropped response resumes from
// `start+count` of the last one with zero waste (distgen does exactly
// this).  Frame boundaries are a pure function of the stream offset
// (FrameBounds): a frame never spans a hard cut of the stream (a term
// boundary of the canonical order, core's TermEdgeStarts) and otherwise
// closes every FrameEdges edges from the last hard cut.  Resuming at any
// such boundary therefore reproduces the uninterrupted byte stream
// exactly; resuming elsewhere still decodes, the first frame is just
// shorter.
package wire

import (
	"encoding/binary"
	"fmt"
	"sort"

	"kronbip/internal/exec"
)

const (
	// FrameEdges is the frame capacity, matched to exec.BatchLen so one
	// generator batch renders into (at most) one frame.
	FrameEdges = exec.BatchLen
	// MaxFrameLen bounds the encoded size of one frame: four maximal
	// uvarints of header and first edge, then two maximal varints per
	// delta pair.
	MaxFrameLen = 4*binary.MaxVarintLen64 + 2*binary.MaxVarintLen64*FrameEdges
)

// HTTP names a consumer of an edge stream or a lease reads or sends.
const (
	// HeaderRequestID is the service's correlation id, honored when the
	// client supplies one; HeaderTraceparent is the W3C trace-context
	// header (https://www.w3.org/TR/trace-context/).
	HeaderRequestID   = "X-Kronbip-Request-Id"
	HeaderTraceparent = "Traceparent"
	// HeaderStreamTotal is the closed-form total of a ranged stream, sent
	// before the first edge.
	HeaderStreamTotal = "X-Kronbip-Stream-Total"
	// TrailerStatus is "complete" or "aborted"; TrailerEdges counts the
	// edges actually sent.
	TrailerStatus = "X-Kronbip-Status"
	TrailerEdges  = "X-Kronbip-Edges"
	// TrailerFourSum carries a leased block's Σ◊: the sum over every
	// edge of the block of its 4-cycle count.
	TrailerFourSum = "X-Kronbip-Four-Sum"
)

// FrameBounds returns the frame of the grid that holds stream offset x:
// lo is the largest frame boundary ≤ x and hi the smallest one above it.
// cuts are the stream's ascending hard cuts (the last is its total);
// between two cuts, boundaries fall every FrameEdges edges from the
// earlier one.
func FrameBounds(cuts []int64, x int64) (lo, hi int64) {
	i := sort.Search(len(cuts), func(i int) bool { return cuts[i] > x })
	prev := int64(0)
	if i > 0 {
		prev = cuts[i-1]
	}
	lo = prev + (x-prev)/FrameEdges*FrameEdges
	hi = lo + FrameEdges
	if i < len(cuts) && cuts[i] < hi {
		hi = cuts[i]
	}
	return lo, hi
}

// PutFrame encodes frame, whose first edge sits at stream offset start,
// into dst and returns the bytes written.  frame must hold 1..FrameEdges
// edges, and dst at least MaxFrameLen bytes.
func PutFrame(dst []byte, start int64, frame []exec.Edge) int {
	b := dst
	i := binary.PutUvarint(b, uint64(len(frame)))
	i += binary.PutUvarint(b[i:], uint64(start))
	i += binary.PutUvarint(b[i:], uint64(frame[0].V))
	i += binary.PutUvarint(b[i:], uint64(frame[0].W))
	pv, pw := frame[0].V, frame[0].W
	for _, e := range frame[1:] {
		// Zigzag the deltas by hand: neighboring canonical edges differ by
		// small steps almost always, so both fit one byte and the encode
		// loop is two stores; the slow path matches binary.PutVarint.
		dv, dw := int64(e.V-pv), int64(e.W-pw)
		uv := uint64(dv<<1) ^ uint64(dv>>63)
		uw := uint64(dw<<1) ^ uint64(dw>>63)
		if uv|uw < 0x80 {
			b[i] = byte(uv)
			b[i+1] = byte(uw)
			i += 2
		} else {
			i += binary.PutUvarint(b[i:], uv)
			i += binary.PutUvarint(b[i:], uw)
		}
		pv, pw = e.V, e.W
	}
	return i
}

// Decode walks a bin payload frame by frame, calling yield (when
// non-nil) with every complete frame's edges; the slice is reused after
// yield returns.  start is the stream offset of the first frame, and
// frames must be contiguous from it.  Decode returns the edges decoded
// from complete frames, the stream offset after the last complete frame,
// and how many trailing bytes did not form a complete frame.  A
// truncated tail is NOT an error, so a consumer of a dropped connection
// can keep the complete prefix and resume from next.  Malformed framing
// (overlong varints, out-of-range counts, negative vertices, a
// contiguity break) is an error, and trailing then counts the bytes from
// the offending frame on.
func Decode(payload []byte, start int64, yield func(frame []exec.Edge)) (edges, next int64, trailing int, err error) {
	// A pooled batch buffer rather than a local array: yield receives a
	// slice of it, which would move a 64 KiB array to the heap on every
	// call, and chunked consumers call Decode once per read.
	bp := exec.GetEdgeBuf()
	defer exec.PutEdgeBuf(bp)
	buf := (*[FrameEdges]exec.Edge)((*bp)[:FrameEdges])
	next = start
	for at := 0; at < len(payload); {
		count, size, err := decodeFrame(payload[at:], next, buf)
		if size == 0 {
			return edges, next, len(payload) - at, err
		}
		if yield != nil {
			yield(buf[:count])
		}
		edges += int64(count)
		next += int64(count)
		at += size
	}
	return edges, next, 0, nil
}

// decodeFrame decodes the frame at the front of p, which must start at
// stream offset want, into buf.  It returns the frame's edge count and
// byte size; size 0 means p holds no complete frame, and err is set when
// its bytes are malformed rather than cut short.  Nothing is reported
// until the whole frame has decoded, so a frame cut off mid-edge
// contributes nothing.
func decodeFrame(p []byte, want int64, buf *[FrameEdges]exec.Edge) (count, size int, err error) {
	c, i := binary.Uvarint(p)
	if i <= 0 {
		return 0, 0, overflow(i, "uvarint")
	}
	if c < 1 || c > FrameEdges {
		return 0, 0, fmt.Errorf("wire: bad frame: count %d out of range [1,%d]", c, FrameEdges)
	}
	fstart, n := binary.Uvarint(p[i:])
	if n <= 0 {
		return 0, 0, overflow(n, "uvarint")
	}
	i += n
	if int64(fstart) != want {
		return 0, 0, fmt.Errorf("wire: bad frame: starts at %d, expected %d", fstart, want)
	}
	uv, n := binary.Uvarint(p[i:])
	if n <= 0 {
		return 0, 0, overflow(n, "uvarint")
	}
	i += n
	uw, n := binary.Uvarint(p[i:])
	if n <= 0 {
		return 0, 0, overflow(n, "uvarint")
	}
	i += n
	v, w := int64(uv), int64(uw)
	if v|w < 0 {
		return 0, 0, negative(v, w)
	}
	buf[0] = exec.Edge{V: int(v), W: int(w)}
	count = int(c)
	q := p[i:] // the frame's delta pairs and whatever follows
	for k := 1; k < count; k++ {
		// While four bytes remain, one- and two-byte varints decode
		// inline; longer ones and the buffer's tail take binary.Uvarint.
		var zv, zw uint64
		if len(q) >= 4 && q[0]|q[1] < 0x80 {
			// The common pair: one byte each.
			zv, zw = uint64(q[0]), uint64(q[1])
			q = q[2:]
		} else {
			var nv, nw int
			if len(q) >= 4 {
				if zv, nv = short(q[0], q[1]); nv > 0 {
					zw, nw = short(q[nv], q[nv+1])
				}
			}
			if nv == 0 {
				if zv, nv = binary.Uvarint(q); nv <= 0 {
					return 0, 0, overflow(nv, "varint")
				}
			}
			if nw == 0 {
				if zw, nw = binary.Uvarint(q[nv:]); nw <= 0 {
					return 0, 0, overflow(nw, "varint")
				}
			}
			q = q[nv+nw:]
		}
		v += int64(zv>>1) ^ -int64(zv&1)
		w += int64(zw>>1) ^ -int64(zw&1)
		if v|w < 0 {
			return 0, 0, negative(v, w)
		}
		buf[k] = exec.Edge{V: int(v), W: int(w)}
	}
	return count, len(p) - len(q), nil
}

// short decodes a one- or two-byte uvarint from its first two bytes;
// n == 0 means the varint is longer.
func short(b0, b1 byte) (x uint64, n int) {
	if b0 < 0x80 {
		return uint64(b0), 1
	}
	if b1 < 0x80 {
		return uint64(b0&0x7f) | uint64(b1)<<7, 2
	}
	return 0, 0
}

// overflow turns binary.Uvarint's non-positive length into decodeFrame's
// result: nil for a buffer that ran out, an error for an encoding too
// long for 64 bits.
func overflow(n int, kind string) error {
	if n == 0 {
		return nil
	}
	return fmt.Errorf("wire: bad frame: %s overflow", kind)
}

func negative(v, w int64) error {
	return fmt.Errorf("wire: bad frame: negative vertex (%d,%d)", v, w)
}
