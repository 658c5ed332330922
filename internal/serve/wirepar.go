package serve

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/wire"
)

// Parallel binary streaming.  Framing is a pure function of the stream
// offset (wire.FrameBounds), so disjoint spans of the canonical order
// encode to exactly the bytes the serial encoder would produce — as
// long as every span boundary lands on the frame grid.  The edges
// endpoint exploits that: spans are generated (closed-form range seek)
// and encoded concurrently, then written to the socket strictly in
// order.  The consumer cannot tell the difference; the bytes are
// identical, they just exist several cores sooner.

// wireSpanEdges is the per-span edge target of the parallel encoder —
// ~64 frames (≈1 MB encoded) amortizes scheduling without inflating
// the ordered fan-in's buffered window.  A variable so tests can lower
// it to force multi-span streams on small products; it must stay at
// least WireFrameEdges.
var wireSpanEdges = int64(64 * WireFrameEdges)

// spanClaimed, when non-nil, runs on a span worker right after it
// claims span i: a test seam for stalling one worker mid-stream.
var spanClaimed func(i int)

// wireSpans splits [lo,hi) into frame-aligned spans of about
// wireSpanEdges edges, returning the ascending boundary list (first
// element lo, last hi).  lo itself need not be aligned: the first
// frame from an unaligned offset is short, exactly as the serial
// encoder would cut it, and every later boundary is on the grid.
func wireSpans(cuts []int64, lo, hi int64) []int64 {
	bounds := []int64{lo}
	for at := lo; at < hi; {
		b := hi
		if at+wireSpanEdges < hi {
			if a, _ := wire.FrameBounds(cuts, at+wireSpanEdges); a > at {
				b = a
			}
		}
		bounds = append(bounds, b)
		at = b
	}
	return bounds
}

// binSpanResult is one encoded span awaiting its ordered turn on the
// socket.
type binSpanResult struct {
	buf   []byte
	edges int64
	tok   bool // span holds a window token; the writer releases it
	err   error
}

// streamBinParallel renders [lo,hi) of p's canonical order as binary
// wire frames through up to `workers` concurrent span encoders and
// writes the spans in order, returning the edges delivered.  With one
// worker (or one span) it degenerates to the serial encoder streaming
// straight to the socket.
func streamBinParallel(ctx context.Context, w http.ResponseWriter, p *core.Product, lo, hi int64, workers int) (int64, error) {
	cuts := p.TermEdgeStarts()
	spans := wireSpans(cuts, lo, hi)
	nspans := len(spans) - 1
	if workers > nspans {
		workers = nspans
	}
	if workers <= 1 {
		sink := newBinSink(w, cuts, lo)
		var sinkErr error
		err := p.EachEdgeRangeBatchContext(ctx, lo, hi, func(batch []exec.Edge) bool {
			if e := sink.EdgeBatch(batch); e != nil {
				sinkErr = e
				return false
			}
			return true
		})
		if err == nil {
			err = sinkErr
		}
		if ferr := sink.Flush(); err == nil {
			err = ferr
		}
		return sink.count(), err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ready := make([]chan binSpanResult, nspans)
	for i := range ready {
		ready[i] = make(chan binSpanResult, 1)
	}
	// The window caps completed-but-unwritten spans at 2 per worker, so
	// a slow consumer bounds buffered memory instead of inflating it.  A
	// token travels with each encoded span; the writer releases it after
	// the span drains to the socket.  A worker takes its token before it
	// claims a span: claimed spans then always hold tokens, so the span
	// the writer waits for can never be left waiting for a token while
	// later spans fill the window.
	window := make(chan struct{}, 2*workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tok := true
				select {
				case window <- struct{}{}:
				case <-ctx.Done():
					tok = false
				}
				i := int(next.Add(1)) - 1
				if i >= nspans {
					if tok {
						<-window
					}
					return
				}
				if spanClaimed != nil {
					spanClaimed(i)
				}
				if !tok {
					// Still answer for the claimed span (without a token) so
					// the ordered reader never blocks on an abandoned slot.
					ready[i] <- binSpanResult{err: ctx.Err()}
					continue
				}
				var buf bytes.Buffer
				sink := newBinSink(&buf, cuts, spans[i])
				var sinkErr error
				err := p.EachEdgeRangeBatchContext(ctx, spans[i], spans[i+1], func(batch []exec.Edge) bool {
					if e := sink.EdgeBatch(batch); e != nil {
						sinkErr = e
						return false
					}
					return true
				})
				if err == nil {
					err = sinkErr
				}
				if err == nil {
					err = sink.Flush()
				}
				ready[i] <- binSpanResult{buf: buf.Bytes(), edges: sink.count(), tok: true, err: err}
			}
		}()
	}

	flusher, _ := w.(http.Flusher)
	var sent int64
	var ferr error
	for i := 0; i < nspans; i++ {
		r := <-ready[i]
		if r.tok {
			<-window
		}
		if ferr != nil {
			continue // aborted: keep draining so every worker can finish
		}
		if r.err != nil {
			ferr = r.err
			cancel()
			continue
		}
		if _, err := w.Write(r.buf); err != nil {
			ferr = err
			cancel()
			continue
		}
		sent += r.edges
		if flusher != nil {
			flusher.Flush()
		}
	}
	wg.Wait()
	return sent, ferr
}
