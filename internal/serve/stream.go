package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"kronbip/internal/audit"
	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/wire"
)

// Streaming output: GET /v1/jobs/{id}/edges re-derives the job's edge
// list from the cached factor state — generation is deterministic, so
// the server never spools edges to disk; the O(|E_C|^(1/2)) product
// descriptor IS the stored result, and every stream request replays it.
//
// The response is chunked and flushed every streamFlushEdges edges so a
// consumer sees steady progress on multi-minute streams; trailers carry
// the completion status, the exact edge count and (with ?audit=1) the
// online auditor's verdict, because none of those are known when the
// header goes out.

// streamFlushEdges is the flush-on-batch interval: large enough to
// amortize the chunked-encoding and syscall cost, small enough that a
// slow consumer sees progress every few hundred KB.
const streamFlushEdges = 16384

// streamFinalizing, when non-nil, runs with the stream's context after
// an audited stream's last edge is out and before its audit finalizes:
// a test seam for holding a stream there.
var streamFinalizing func(ctx context.Context)

// Trailer names for the streaming endpoint.  The Trailer header
// announces exactly the set that will be sent: status and edge count
// always, the audit pair only on audited streams (an aborted audited
// stream still gets its partial tallies).  TrailerStatus and
// TrailerEdges forward internal/wire's names, which perfbench reads
// from this package.
const (
	TrailerStatus          = wire.TrailerStatus // "complete" or "aborted"
	TrailerEdges           = wire.TrailerEdges  // edges actually sent
	TrailerAuditChecks     = "X-Kronbip-Audit-Checks"
	TrailerAuditViolations = "X-Kronbip-Audit-Violations"
)

// Range-streaming response headers: the closed-form stream total and
// the granted starting offset, sent before the first edge so a client
// that loses the connection knows how to size and resume its request.
const (
	HeaderStreamTotal  = wire.HeaderStreamTotal // forwarded, like the trailers
	HeaderStreamOffset = "X-Kronbip-Stream-Offset"
)

// streamSink is an HTTP text stream: exec's TextSink renders the edges
// (ndjson or tsv) straight into its own write buffer, and the HTTP chunk
// is flushed every streamFlushEdges edges.  It is used from the one
// goroutine that walks the stream (walkWindow), because an HTTP
// response is one ordered byte stream.
type streamSink struct {
	text    *exec.TextSink
	flusher http.Flusher
	n       int64 // edges written
	batch   int   // edges since the last flush
}

func newStreamSink(w http.ResponseWriter, ndjson bool) *streamSink {
	text := exec.NewTSVSink
	if ndjson {
		text = exec.NewNDJSONSink
	}
	s := &streamSink{text: text(w)}
	if f, ok := w.(http.Flusher); ok {
		s.flusher = f
	}
	return s
}

// EdgeBatch renders the batch, cut at every streamFlushEdges-th edge,
// where the rendered bytes and the HTTP chunk go out and the edge
// counter advances, wherever that falls in a batch.
func (s *streamSink) EdgeBatch(edges []exec.Edge) error {
	for len(edges) > 0 {
		n := min(len(edges), streamFlushEdges-s.batch)
		if err := s.text.EdgeBatch(edges[:n]); err != nil {
			return err
		}
		edges = edges[n:]
		s.n += int64(n)
		s.batch += n
		if s.batch == streamFlushEdges {
			s.batch = 0
			mStreamEdges.Add(streamFlushEdges)
			if err := s.text.Flush(); err != nil {
				return err
			}
			if s.flusher != nil {
				s.flusher.Flush()
			}
		}
	}
	return nil
}

func (s *streamSink) Flush() error {
	mStreamEdges.Add(int64(s.batch))
	s.batch = 0
	return s.text.Flush()
}

func (s *streamSink) count() int64 { return s.n }

// edgeStreamSink is what the streaming handlers need from a rendering
// besides its walk: a flush, and the sent-edge count for the trailers.
// streamSink (ndjson/tsv) takes batches and binSink (bin) runs.
type edgeStreamSink interface {
	Flush() error
	count() int64
}

// walkWindow is serve's one walk of the product.  It walks edges
// [lo, hi) of block (row, col) of a rows×cols grid of p's canonical
// order (block-local offsets; a job stream is block (0,0) of 1×1) on
// the calling goroutine, into out, the stream's encoder, and then into
// tap, the stream's auditor, when tap is non-nil.  A bin stream walks
// runs, one per prefix pair, which its encoder frames by copying
// delta bytes; a text stream walks the walker's batches.  Given a
// non-nil fourSum, which needs a bin out, the run walk also prices the
// window per prefix pair and adds its Σ◊ to *fourSum.  It returns the
// walk's error (bad coordinates, a cancelled ctx) or else out's first
// error, which stops the walk.
func walkWindow(ctx context.Context, p *core.Product, row, rows, col, cols int, lo, hi int64,
	out edgeStreamSink, tap *audit.StreamAuditor, fourSum *int64) error {
	var outErr error
	var err error
	switch out := out.(type) {
	case *binSink:
		err = p.EachEdgeBlockRangeRunContext(ctx, row, rows, col, cols, lo, hi, fourSum, func(r core.Run) bool {
			if outErr = out.Run(r); outErr != nil {
				return false
			}
			if tap != nil {
				tap.EdgeRun(r) // a finding, never an error
			}
			return true
		})
	case *streamSink:
		if fourSum != nil {
			return fmt.Errorf("serve: a priced walk needs a bin stream")
		}
		err = p.EachEdgeBlockRangeBatchContext(ctx, row, rows, col, cols, lo, hi, func(batch []exec.Edge) bool {
			if outErr = out.EdgeBatch(batch); outErr != nil {
				return false
			}
			if tap != nil {
				_ = tap.EdgeBatch(batch) // a finding, never an error
			}
			return true
		})
	}
	if err == nil {
		err = outErr
	}
	return err
}

// parseStreamFormat resolves the requested rendering: the explicit
// format parameter wins, else an Accept header naming the binary media
// type selects "bin", else ndjson.
func parseStreamFormat(explicit, accept string) (string, error) {
	switch explicit {
	case "":
		if strings.Contains(accept, ContentTypeBin) {
			return "bin", nil
		}
		return "ndjson", nil
	case "ndjson", "tsv", "bin":
		return explicit, nil
	}
	return "", fmt.Errorf("bad format %q (want ndjson, tsv or bin)", explicit)
}

// contentTypeFor maps a resolved stream format to its media type.
func contentTypeFor(format string) string {
	switch format {
	case "tsv":
		return "text/tab-separated-values; charset=utf-8"
	case "bin":
		return ContentTypeBin
	}
	return "application/x-ndjson"
}

// streamTrailers returns the Trailer announcement for a stream:
// exactly the trailers that will be sent.
func streamTrailers(auditOn bool) string {
	t := TrailerStatus + ", " + TrailerEdges
	if auditOn {
		t += ", " + TrailerAuditChecks + ", " + TrailerAuditViolations
	}
	return t
}

// parseEdgeRange resolves ?offset=/?limit= against the closed-form
// stream total, writing the error response (400 on malformed values,
// 416 with the total when offset points past the end) itself.
func parseEdgeRange(w http.ResponseWriter, q url.Values, total int64) (lo, hi int64, ok bool) {
	lo, hi = 0, total
	if v := q.Get("offset"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q (want a non-negative edge index)", v)
			return 0, 0, false
		}
		if n > total {
			w.Header().Set(HeaderStreamTotal, strconv.FormatInt(total, 10))
			writeError(w, http.StatusRequestedRangeNotSatisfiable,
				"offset %d beyond stream end (%d edges)", n, total)
			return 0, 0, false
		}
		lo = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q (want a non-negative edge count)", v)
			return 0, 0, false
		}
		if n < hi-lo {
			hi = lo + n
		}
	}
	return lo, hi, true
}

func (s *Server) handleJobEdges(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if j.ctx.Err() != nil {
		writeError(w, http.StatusConflict, "job %s is cancelled", j.id)
		return
	}
	q := r.URL.Query()
	format, err := parseStreamFormat(q.Get("format"), r.Header.Get("Accept"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	auditOn := q.Get("audit") == "1" || q.Get("audit") == "true"
	total := j.product.NumEdges()
	lo, hi, ok := parseEdgeRange(w, q, total)
	if !ok {
		return
	}
	ranged := lo != 0 || hi != total
	if auditOn && ranged {
		// The audit invariants (exact count, degree sums) are whole-
		// stream properties; a partial range can only fail them.
		writeError(w, http.StatusBadRequest, "audit requires the full stream; drop offset/limit")
		return
	}
	if !s.admitWalk(w, r, "stream") {
		return
	}
	defer s.mgr.walks.release()

	// The stream runs under the request context AND the job context:
	// client disconnects and DELETE /v1/jobs/{id} both abort it
	// mid-flight through the walker's batch cancellation contract.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(j.ctx, cancel)
	defer stop()

	w.Header().Set("Content-Type", contentTypeFor(format))
	w.Header().Set(HeaderStreamTotal, strconv.FormatInt(total, 10))
	w.Header().Set(HeaderStreamOffset, strconv.FormatInt(lo, 10))
	w.Header().Set("Trailer", streamTrailers(auditOn))
	w.WriteHeader(http.StatusOK)

	var out edgeStreamSink
	if format == "bin" {
		bin := newBinSink(w, j.product.TermEdgeStarts(), lo, hi)
		defer bin.release()
		out = bin
	} else {
		out = newStreamSink(w, format == "ndjson")
	}
	var auditor *audit.Auditor
	var tap *audit.StreamAuditor
	if auditOn {
		auditor = audit.New(j.product, audit.Options{SampleEvery: s.cfg.AuditSample})
		tap = auditor.Stream()
	}
	err = walkWindow(ctx, j.product, 0, 1, 0, 1, lo, hi, out, tap, nil)
	// Deliver the tail even on an aborted stream.
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	sent := out.count()

	var report *audit.Report
	if auditor != nil && err == nil {
		if streamFinalizing != nil {
			streamFinalizing(ctx)
		}
		// theorem.four_dual's pricing runs under the stream's context, so
		// a DELETE, a departed client or a drain stops it within 1024
		// prefix pairs and the walk slot comes free.
		report, err = auditor.FinalizeContext(ctx)
	}
	status := "complete"
	if err != nil {
		status = "aborted"
		mStreamAborts.Inc()
	}
	if auditor != nil {
		if report != nil {
			w.Header().Set(TrailerAuditChecks, strconv.Itoa(report.Checks))
			w.Header().Set(TrailerAuditViolations, strconv.Itoa(len(report.Violations)))
			if !report.OK() {
				status = "audit-violation"
			}
		} else {
			// Aborted audited stream or audit: report the partial
			// membership verdicts — announced trailers always arrive.
			checks, violations := tap.Partial()
			w.Header().Set(TrailerAuditChecks, strconv.FormatInt(checks, 10))
			w.Header().Set(TrailerAuditViolations, strconv.FormatInt(violations, 10))
		}
	}
	w.Header().Set(TrailerStatus, status)
	w.Header().Set(TrailerEdges, strconv.FormatInt(sent, 10))
	// Repeat the request id as an unannounced trailer (TrailerPrefix):
	// it already went out as a response header, but a consumer that
	// piped the multi-GB body elsewhere sees the correlation key again
	// at EOF next to the audit verdict.
	if ri := requestFrom(r.Context()); ri.id != "" {
		w.Header().Set(http.TrailerPrefix+wire.HeaderRequestID, ri.id)
	}
}
