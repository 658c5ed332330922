package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/serve"
)

// digestSeed starts every edge-sequence digest.
const digestSeed = uint64(0xcbf29ce484222325)

// digestEdges folds edges into h in order: swapping two edges, dropping
// one or changing a vertex changes the result.
func digestEdges(h uint64, edges []exec.Edge) uint64 {
	for _, e := range edges {
		h ^= uint64(e.V)<<32 | uint64(uint32(e.W))
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// refDigest is the digest of the canonical walk of edges [lo,hi) of p,
// computed in process — the reference a served stream must match.
func refDigest(p *core.Product, lo, hi int64) (uint64, error) {
	h := digestSeed
	err := p.EachEdgeRangeBatchContext(context.Background(), lo, hi, func(b []exec.Edge) bool {
		h = digestEdges(h, b)
		return true
	})
	return h, err
}

// recvBufBytes is the receive buffer: every body is read through one
// buffer of this size, reused across ops.
const recvBufBytes = 256 << 10

// maxChunkEdges bounds the edges one receive buffer can decode to: a bin
// frame spends at least two bytes per edge, an NDJSON line fourteen.
const maxChunkEdges = recvBufBytes / 2

// receiver turns edge-stream bodies into digests through buffers that
// are allocated once.
type receiver struct {
	buf   []byte
	edges []exec.Edge
}

func newReceiver() *receiver {
	return &receiver{buf: make([]byte, recvBufBytes), edges: make([]exec.Edge, 0, maxChunkEdges)}
}

// bodyResult is what a whole body decoded to.
type bodyResult struct {
	edges  int64
	digest uint64
}

// consume reads body to EOF, decoding it as format ("bin" frames that
// must start at offset start, or "ndjson" lines) and digesting every
// edge.  A payload that does not end on a frame or line boundary is an
// error: the stream was cut.  With a tracer, each chunk's decode and
// digest get their own child spans under parent, so the parent's self
// time is the time spent waiting on the socket.
func (r *receiver) consume(body io.Reader, format string, start int64, tr *tracer, op, parent int) (bodyResult, error) {
	res := bodyResult{digest: digestSeed}
	next, carry := start, 0
	for {
		m, rerr := io.ReadFull(body, r.buf[carry:])
		data := r.buf[:carry+m]
		sid := tr.begin("client.decode", op, parent)
		var consumed int
		var err error
		r.edges = r.edges[:0]
		if format == "bin" {
			consumed, next, err = r.decodeBin(data, next)
		} else {
			consumed, err = r.decodeNDJSON(data)
		}
		tr.end(sid)
		if err != nil {
			return res, err
		}
		sid = tr.begin("client.verify", op, parent)
		res.digest = digestEdges(res.digest, r.edges)
		res.edges += int64(len(r.edges))
		tr.end(sid)
		carry = copy(r.buf, data[consumed:])
		switch {
		case rerr == io.EOF || rerr == io.ErrUnexpectedEOF:
			if carry != 0 {
				return res, fmt.Errorf("truncated payload: %d trailing bytes after the last complete %s", carry, unitOf(format))
			}
			return res, nil
		case rerr != nil:
			return res, fmt.Errorf("read body: %w", rerr)
		case carry == len(r.buf):
			return res, fmt.Errorf("a %s longer than the %d-byte receive buffer", unitOf(format), len(r.buf))
		}
	}
}

func unitOf(format string) string {
	if format == "bin" {
		return "frame"
	}
	return "line"
}

// decodeBin decodes the complete frames of data with serve.DecodeWire.
func (r *receiver) decodeBin(data []byte, next int64) (consumed int, after int64, err error) {
	_, after, trailing, err := serve.DecodeWire(data, next, func(v, w int) {
		r.edges = append(r.edges, exec.Edge{V: v, W: w})
	})
	return len(data) - trailing, after, err
}

// decodeNDJSON parses the complete `{"v":V,"w":W}` lines of data.
func (r *receiver) decodeNDJSON(data []byte) (consumed int, err error) {
	for {
		nl := bytes.IndexByte(data[consumed:], '\n')
		if nl < 0 {
			return consumed, nil
		}
		v, w, err := parseNDJSONLine(data[consumed : consumed+nl])
		if err != nil {
			return consumed, err
		}
		r.edges = append(r.edges, exec.Edge{V: v, W: w})
		consumed += nl + 1
	}
}

func parseNDJSONLine(line []byte) (v, w int, err error) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"v":`))
	if !ok {
		return 0, 0, fmt.Errorf("bad ndjson line %q", line)
	}
	v, rest, ok = leadingUint(rest)
	if !ok {
		return 0, 0, fmt.Errorf("bad ndjson line %q", line)
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"w":`))
	if !ok {
		return 0, 0, fmt.Errorf("bad ndjson line %q", line)
	}
	w, rest, ok = leadingUint(rest)
	if !ok || len(rest) != 1 || rest[0] != '}' {
		return 0, 0, fmt.Errorf("bad ndjson line %q", line)
	}
	return v, w, nil
}

// leadingUint parses the decimal digits at the front of b.
func leadingUint(b []byte) (n int, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i >= 18 {
			return 0, b, false
		}
		n = n*10 + int(b[i]-'0')
	}
	return n, b[i:], i > 0
}

// streamWant is what a verified edge response must show.
type streamWant struct {
	format string
	lo     int64  // first edge offset
	edges  int64  // edges the response must carry
	total  int64  // closed-form stream total
	digest uint64 // reference digest of edges [lo, lo+edges)
}

// checkStream verifies one edge response: status, headers, the decoded
// body and, after EOF, the trailers.  It reads the body through rc.
func checkStream(resp *http.Response, rc *receiver, want streamWant, tr *tracer, op, parent int) error {
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("edges: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if got := resp.Header.Get(serve.HeaderStreamTotal); got != strconv.FormatInt(want.total, 10) {
		return fmt.Errorf("edges: %s %q, closed form %d", serve.HeaderStreamTotal, got, want.total)
	}
	res, err := rc.consume(resp.Body, want.format, want.lo, tr, op, parent)
	if err != nil {
		return err
	}
	return checkBody(res, resp.Trailer, want)
}

// checkBody compares a decoded body and its trailers with want.
func checkBody(res bodyResult, trailer http.Header, want streamWant) error {
	if st := trailer.Get(serve.TrailerStatus); st != "complete" {
		return fmt.Errorf("edges: trailer %s %q", serve.TrailerStatus, st)
	}
	if got := trailer.Get(serve.TrailerEdges); got != strconv.FormatInt(want.edges, 10) {
		return fmt.Errorf("edges: trailer %s %q, want %d", serve.TrailerEdges, got, want.edges)
	}
	if res.edges != want.edges {
		return fmt.Errorf("edges: decoded %d edges, want %d", res.edges, want.edges)
	}
	if res.digest != want.digest {
		return errors.New("edges: edge sequence differs from the canonical walk")
	}
	return nil
}

// binFrameEnds returns the byte offset at which each complete frame of
// a bin payload ends, walking only the varint framing.
func binFrameEnds(payload []byte) []int {
	var ends []int
	at := 0
	for at < len(payload) {
		count, n := binary.Uvarint(payload[at:])
		if n <= 0 {
			return ends
		}
		p := at + n
		if _, n = binary.Uvarint(payload[p:]); n <= 0 {
			return ends
		}
		p += n
		for i := uint64(0); i < 2*count; i++ {
			if _, n = binary.Uvarint(payload[p:]); n <= 0 {
				return ends
			}
			p += n
		}
		ends = append(ends, p)
		at = p
	}
	return ends
}

// corruptions derives the three damaged payloads the self-check feeds
// the verifier: a flipped byte, a dropped frame (bin) or line (NDJSON),
// and a truncated tail.
func corruptions(payload []byte, format string) (map[string][]byte, error) {
	var second [2]int // byte range of the second frame or line
	if format == "bin" {
		ends := binFrameEnds(payload)
		if len(ends) < 3 {
			return nil, fmt.Errorf("self-check payload has %d frames, need 3", len(ends))
		}
		second = [2]int{ends[0], ends[1]}
	} else {
		a := bytes.IndexByte(payload, '\n') + 1
		b := a + bytes.IndexByte(payload[a:], '\n') + 1
		if a <= 0 || b <= a {
			return nil, errors.New("self-check payload has fewer than 2 lines")
		}
		second = [2]int{a, b}
	}
	flipped := append([]byte(nil), payload...)
	flipped[len(flipped)/2] ^= 0x01
	dropped := append(append([]byte(nil), payload[:second[0]]...), payload[second[1]:]...)
	return map[string][]byte{
		"flipped-byte":   flipped,
		"dropped-frame":  dropped,
		"truncated-tail": payload[:len(payload)-3],
	}, nil
}
