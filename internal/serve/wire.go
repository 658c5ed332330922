package serve

import (
	"io"
	"net/http"

	"kronbip/internal/exec"
	"kronbip/internal/wire"
)

// Binary wire format ("bin"): internal/wire owns the frame layout, the
// frame grid and the codec.  This file keeps the server's side of it —
// the media type and the buffered, flushing encoder — plus forwarders
// for the names perfbench reads from this package.
const (
	// ContentTypeBin is the negotiated media type for the binary edge
	// stream (?format=bin, or Accept: application/vnd.kronbip.edges).
	ContentTypeBin = "application/vnd.kronbip.edges"
	// WireFrameEdges forwards wire.FrameEdges.
	WireFrameEdges = wire.FrameEdges
)

// binSink renders edge batches into binary wire frames, with the same
// flush-every-streamFlushEdges cadence as the text streamSink.  Frames
// accumulate in the sink's own scratch and reach the writer in
// wireWriteTarget-sized writes — the encoder is its own buffered
// writer, so no byte is copied twice on the way to the socket.
type binSink struct {
	w       io.Writer
	flusher http.Flusher
	frame   []exec.Edge // open frame, emitted when it reaches `end`
	start   int64       // stream offset of frame[0]
	end     int64       // target exclusive end of the open frame
	cuts    []int64     // ascending hard cuts; last is the stream total
	scratch []byte      // encode accumulator; frames append at off
	off     int         // bytes of scratch holding encoded frames
	n       int64       // edges written (trailer)
	batch   int64       // flush cadence counter
}

// wireWriteTarget is the accumulation high-water mark: once this many
// encoded bytes are pending, they go to the writer in one Write.
const wireWriteTarget = 1 << 17

// newBinSink builds the encoder for a stream starting at offset start
// of the space the hard-cut schedule describes (TermEdgeStarts for the
// canonical order, BlockTermEdgeStarts for a block lease).
func newBinSink(w io.Writer, cuts []int64, start int64) *binSink {
	s := &binSink{
		w:     w,
		frame: make([]exec.Edge, 0, WireFrameEdges),
		start: start,
		cuts:  cuts,
		// Headroom past the high-water mark for one worst-case frame, so
		// the encode loop never grows or bounds-trips mid-frame.
		scratch: make([]byte, wireWriteTarget+wire.MaxFrameLen),
	}
	if f, ok := w.(http.Flusher); ok {
		s.flusher = f
	}
	_, s.end = wire.FrameBounds(cuts, start)
	return s
}

func (s *binSink) EdgeBatch(edges []exec.Edge) error {
	// Fast path: with no partial frame open, whole frames encode straight
	// out of the caller's batch — no copy into s.frame at all.
	for len(s.frame) == 0 {
		take := s.end - s.start
		if int64(len(edges)) < take {
			break
		}
		if err := s.writeFrame(edges[:take]); err != nil {
			return err
		}
		edges = edges[take:]
		if len(edges) == 0 {
			return nil
		}
	}
	for len(edges) > 0 {
		room := s.end - (s.start + int64(len(s.frame)))
		take := int64(len(edges))
		if take > room {
			take = room
		}
		s.frame = append(s.frame, edges[:take]...)
		edges = edges[take:]
		if s.start+int64(len(s.frame)) == s.end {
			if err := s.emitFrame(); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitFrame serializes and writes the open frame, then opens the next.
func (s *binSink) emitFrame() error {
	if len(s.frame) == 0 {
		return nil
	}
	err := s.writeFrame(s.frame)
	s.frame = s.frame[:0]
	return err
}

// writeFrame serializes one complete frame (frame[0] sits at stream
// offset s.start) and advances the framing state past it.
func (s *binSink) writeFrame(frame []exec.Edge) error {
	count := len(frame)
	s.off += wire.PutFrame(s.scratch[s.off:], s.start, frame)
	s.start += int64(count)
	_, s.end = wire.FrameBounds(s.cuts, s.start)
	s.n += int64(count)
	s.batch += int64(count)
	if s.off >= wireWriteTarget {
		if err := s.drain(); err != nil {
			return err
		}
	}
	if s.batch >= streamFlushEdges {
		mStreamEdges.Add(s.batch)
		s.batch = 0
		if err := s.drain(); err != nil {
			return err
		}
		if s.flusher != nil {
			s.flusher.Flush()
		}
	}
	return nil
}

// drain hands the accumulated frame bytes to the writer.
func (s *binSink) drain() error {
	if s.off == 0 {
		return nil
	}
	_, err := s.w.Write(s.scratch[:s.off])
	s.off = 0
	return err
}

// Flush emits the final (possibly short) frame — an aborted stream or a
// ?limit= that ends off the frame grid still delivers every edge — and
// drains the buffered writer.
func (s *binSink) Flush() error {
	if len(s.frame) > 0 {
		// Close the open frame wherever it stands.
		s.end = s.start + int64(len(s.frame))
		if err := s.emitFrame(); err != nil {
			return err
		}
	}
	mStreamEdges.Add(s.batch)
	s.batch = 0
	return s.drain()
}

func (s *binSink) count() int64 { return s.n }

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
