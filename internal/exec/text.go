package exec

import (
	"encoding/binary"
	"io"
	"math/bits"
	"strconv"
)

// Text rendering.  Every TSV and NDJSON edge in the repository — serve's
// text streams, dist-gen's merged text output and the files `kronbip
// generate` writes — is rendered by AppendTSV or AppendNDJSON, so they
// agree byte for byte.  Both run one decimal kernel: an id below 10⁸ is
// converted inside one uint64 (SWAR, all eight digits at once) and
// written with one 8-byte store; an id in [10⁸, 10¹⁶) takes two
// conversions; a negative id or one of 10¹⁶ or more goes through
// strconv.AppendInt.

const (
	// maxIDLen is the widest decimal id, math.MinInt64.
	maxIDLen = 20
	// tsvLineMax and ndjsonLineMax are the widest lines the renderers
	// emit: "v\tw\n" and {"v":v,"w":w} plus a newline.
	tsvLineMax    = 2*maxIDLen + 2
	ndjsonLineMax = 2*maxIDLen + 12
	// storeSlack is how far past the bytes it keeps an 8-byte store may
	// reach.
	storeSlack = 8
)

// The NDJSON line's fixed parts, each written with one 8-byte store of
// which the low bytes count: `{"v":` and `,"w":` (five bytes), `}` and
// a newline (two).  ascii0 adds '0' to every byte lane.
const (
	ndjsonOpen = uint64('{') | '"'<<8 | 'v'<<16 | '"'<<24 | ':'<<32
	ndjsonMid  = uint64(',') | '"'<<8 | 'w'<<16 | '"'<<24 | ':'<<32
	ndjsonEnd  = uint64('}') | '\n'<<8
	ascii0     = 0x3030303030303030
)

// AppendTSV appends each edge as a "v\tw\n" line — the on-disk
// interchange format of cmd/kronbip and serve's tsv stream — to dst and
// returns the extended buffer.
//
// A line is written with 8-byte stores while dst's spare capacity
// holds a worst-case line plus 8 bytes, and appended at exact length
// otherwise, so a dst sized for the rendered bytes never grows.  The
// wide stores may overwrite up to 7 bytes of spare capacity past the
// returned length.
func AppendTSV(dst []byte, edges []Edge) []byte { return appendLines(dst, edges, false) }

// AppendNDJSON appends each edge as a {"v":N,"w":M} line — serve's
// ndjson stream — to dst and returns the extended buffer, under
// AppendTSV's capacity rules.
func AppendNDJSON(dst []byte, edges []Edge) []byte { return appendLines(dst, edges, true) }

func appendLines(dst []byte, edges []Edge, ndjson bool) []byte {
	lineMax := tsvLineMax
	if ndjson {
		lineMax = ndjsonLineMax
	}
	for len(edges) > 0 {
		n := min(len(edges), (cap(dst)-len(dst)-storeSlack)/lineMax)
		if n > 0 {
			dst = putLines(dst, edges[:n], ndjson)
		} else {
			// Too little room for the wide stores: render one line on
			// the stack and append exactly its bytes.
			var line [ndjsonLineMax + storeSlack]byte
			dst = append(dst, putLines(line[:0], edges[:1], ndjson)...)
			n = 1
		}
		edges = edges[n:]
	}
	return dst
}

// putLines renders edges into dst's spare capacity, which must hold
// len(edges) worst-case lines plus storeSlack bytes.
func putLines(dst []byte, edges []Edge, ndjson bool) []byte {
	open, mid, end := uint64(0), uint64('\t'), uint64('\n')
	openLen, midLen, endLen := 0, 1, 1
	if ndjson {
		open, mid, end = ndjsonOpen, ndjsonMid, ndjsonEnd
		openLen, midLen, endLen = 5, 5, 2
	}
	buf := dst[:cap(dst)]
	at := len(dst)
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[at:], open)
		at += openLen
		if v, w := uint64(e.V), uint64(e.W); max(v, w) < 1e8 {
			// Both ids are short: two conversions side by side, inlined.
			x, nx := trim(lanes(v))
			y, ny := trim(lanes(w))
			binary.LittleEndian.PutUint64(buf[at:], x)
			at += nx
			binary.LittleEndian.PutUint64(buf[at:], mid)
			at += midLen
			binary.LittleEndian.PutUint64(buf[at:], y)
			at += ny
		} else {
			at = putID(buf, at, e.V)
			binary.LittleEndian.PutUint64(buf[at:], mid)
			at += midLen
			at = putID(buf, at, e.W)
		}
		binary.LittleEndian.PutUint64(buf[at:], end)
		at += endLen
	}
	return buf[:at]
}

// putID writes id in decimal at buf[at:] and returns the offset past its
// last digit; buf must have maxIDLen+storeSlack bytes from at.
func putID(buf []byte, at, id int) int {
	u := uint64(id)
	switch {
	case u < 1e8:
		x, n := trim(lanes(u))
		binary.LittleEndian.PutUint64(buf[at:], x)
		return at + n
	case u < 1e16:
		hi := u / 1e8
		x, n := trim(lanes(hi))
		binary.LittleEndian.PutUint64(buf[at:], x)
		binary.LittleEndian.PutUint64(buf[at+n:], lanes(u-hi*1e8)+ascii0)
		return at + n + 8
	}
	return len(strconv.AppendInt(buf[:at], int64(id), 10))
}

// lanes spreads n < 10⁸ into eight byte lanes, one decimal digit each,
// zero-padded, the most significant digit in the low byte — the order
// a little-endian store writes them in.  Each step halves the lane
// width: divide every lane by 10⁴, 10² or 10 at once by a multiply and
// shift that is exact over the lane's range, and put the quotient in
// the lower half of the lane and the remainder in the upper.
func lanes(n uint64) uint64 {
	q := uint32(n) / 10000
	x := uint64(q) | uint64(uint32(n)-q*10000)<<32
	h := x * 10486 >> 20 & 0x0000007f0000007f
	x = h | (x-h*100)<<16
	t := x * 103 >> 10 & 0x000f000f000f000f
	return t | (x-t*10)<<8
}

// trim turns lanes' digits into ASCII without the leading zeros — a
// shift by 8 × their count, which the lowest nonzero lane gives ("0"
// for 0) — and returns them with their count.
func trim(x uint64) (uint64, int) {
	z := uint(bits.TrailingZeros64(x|1<<56)) & 56
	return (x + ascii0) >> z, 8 - int(z/8)
}

// RenderChunk is how many edges a TextSink renders per kernel call.  Its
// buffer keeps RenderChunk widest lines (52 bytes each, an NDJSON line
// of two math.MinInt64 ids) of headroom past textWriteTarget, so every
// chunk renders with the kernel's 8-byte stores and the buffer never
// grows.
const RenderChunk = 1024

// textWriteTarget is a TextSink's high-water mark: once this many
// rendered bytes are pending, they go to the writer in one Write.
const textWriteTarget = 1 << 17

// TextSink renders edges as TSV or NDJSON lines straight into a buffer
// it owns, and hands the buffer to its writer once it holds
// textWriteTarget bytes: the sink is its own buffered writer, so no
// byte is copied twice on its way out.
type TextSink struct {
	w      io.Writer
	ndjson bool
	buf    []byte
}

// NewTSVSink returns a TextSink writing AppendTSV lines to w.
func NewTSVSink(w io.Writer) *TextSink { return newTextSink(w, false) }

// NewNDJSONSink returns a TextSink writing AppendNDJSON lines to w.
func NewNDJSONSink(w io.Writer) *TextSink { return newTextSink(w, true) }

func newTextSink(w io.Writer, ndjson bool) *TextSink {
	return &TextSink{w: w, ndjson: ndjson,
		buf: make([]byte, 0, textWriteTarget+RenderChunk*ndjsonLineMax+storeSlack)}
}

// EdgeBatch renders the batch RenderChunk edges at a time, writing the
// buffer out whenever it passes textWriteTarget.
func (t *TextSink) EdgeBatch(edges []Edge) error {
	for len(edges) > 0 {
		n := min(len(edges), RenderChunk)
		t.buf = appendLines(t.buf, edges[:n], t.ndjson)
		edges = edges[n:]
		if len(t.buf) >= textWriteTarget {
			if err := t.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes the pending bytes to the writer.
func (t *TextSink) Flush() error {
	if len(t.buf) == 0 {
		return nil
	}
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}
