package serve

import (
	"io"
	"net/http"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/wire"
)

// Binary wire format ("bin"): internal/wire owns the frame layout, the
// frame grid and the codec.  This file keeps the server's side of it —
// the media type and the HTTP wrapper of wire's run writer — plus
// forwarders for the names perfbench reads from this package.
const (
	// ContentTypeBin is the negotiated media type for the binary edge
	// stream (?format=bin, or Accept: application/vnd.kronbip.edges).
	ContentTypeBin = "application/vnd.kronbip.edges"
	// WireFrameEdges forwards wire.FrameEdges.
	WireFrameEdges = wire.FrameEdges
)

// binSink is a bin HTTP stream: a pooled wire.Writer frames the walk's
// runs straight into its own write buffer, and the HTTP chunk is
// flushed every streamFlushEdges edges, at the first frame boundary
// past them.  Like streamSink it is used from the one goroutine that
// walks the stream (walkWindow), and its writer goes back to the pool
// with release.
type binSink struct {
	enc      *wire.Writer
	flusher  http.Flusher
	reported int64 // edges counted into serve.stream.edges
}

// newBinSink builds the encoder for edges [lo, hi) of the space the
// hard-cut schedule describes (TermEdgeStarts for the canonical order,
// BlockTermEdgeStarts for a block lease).
func newBinSink(w io.Writer, cuts []int64, lo, hi int64) *binSink {
	s := &binSink{}
	s.flusher, _ = w.(http.Flusher)
	s.enc = wire.NewWriter(w, cuts, lo, hi, streamFlushEdges, s.flushed)
	return s
}

// flushed is the writer's cadence: count the framed edges and push the
// HTTP chunk out.
func (s *binSink) flushed(edges int64) {
	s.reported += edges
	mStreamEdges.Add(edges)
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

// Run frames one run of the walk.
func (s *binSink) Run(r core.Run) error { return s.enc.Run(r) }

// Flush closes a frame the walk stopped inside — an aborted stream
// still ends on a whole frame holding every edge it sent — and drains
// the writer.
func (s *binSink) Flush() error {
	err := s.enc.Flush()
	mStreamEdges.Add(s.enc.Edges() - s.reported)
	s.reported = s.enc.Edges()
	return err
}

func (s *binSink) count() int64 { return s.enc.Edges() }

// release returns the sink's writer to its pool; the sink is dead after.
func (s *binSink) release() {
	s.enc.Release()
	s.enc = nil
}

// DecodeWire is wire.Decode with a per-edge yield, for consumers that
// take one edge at a time.
func DecodeWire(payload []byte, start int64, yield func(v, w int)) (edges, next int64, trailing int, err error) {
	var frames func([]exec.Edge)
	if yield != nil {
		frames = func(frame []exec.Edge) {
			for _, e := range frame {
				yield(e.V, e.W)
			}
		}
	}
	return wire.Decode(payload, start, frames)
}
