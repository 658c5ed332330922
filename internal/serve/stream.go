package serve

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"kronbip/internal/audit"
	"kronbip/internal/exec"
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

// Trailer names for the streaming endpoint.  The Trailer header
// announces exactly the set that will be sent: status and edge count
// always, the audit pair only on audited streams (an aborted audited
// stream still gets its partial tallies).
const (
	TrailerStatus          = "X-Kronbip-Status" // "complete" or "aborted"
	TrailerEdges           = "X-Kronbip-Edges"  // edges actually sent
	TrailerAuditChecks     = "X-Kronbip-Audit-Checks"
	TrailerAuditViolations = "X-Kronbip-Audit-Violations"
)

// Range-streaming response headers: the closed-form stream total and
// the granted starting offset, sent before the first edge so a client
// that loses the connection knows how to size and resume its request.
const (
	HeaderStreamTotal  = "X-Kronbip-Stream-Total"
	HeaderStreamOffset = "X-Kronbip-Stream-Offset"
)

// streamSink writes edges in the chosen rendering through a buffered
// writer, flushing the HTTP chunk every streamFlushEdges edges.  It is
// used from a single goroutine (the stream runs one shard, because an
// HTTP response is one ordered byte stream).
type streamSink struct {
	bw      *bufio.Writer
	flusher http.Flusher
	ndjson  bool
	scratch []byte
	n       int64 // edges written
	batch   int64
}

func newStreamSink(w http.ResponseWriter, ndjson bool) *streamSink {
	s := &streamSink{bw: bufio.NewWriterSize(w, 1<<16), ndjson: ndjson, scratch: make([]byte, 0, 64)}
	if f, ok := w.(http.Flusher); ok {
		s.flusher = f
	}
	return s
}

func (s *streamSink) Edge(v, w int) error {
	b := s.scratch[:0]
	if s.ndjson {
		b = append(b, `{"v":`...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, `,"w":`...)
		b = strconv.AppendInt(b, int64(w), 10)
		b = append(b, '}', '\n')
	} else {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, int64(w), 10)
		b = append(b, '\n')
	}
	s.scratch = b
	if _, err := s.bw.Write(b); err != nil {
		return err
	}
	s.n++
	s.batch++
	if s.batch >= streamFlushEdges {
		s.batch = 0
		mStreamEdges.Add(streamFlushEdges)
		if err := s.bw.Flush(); err != nil {
			return err
		}
		if s.flusher != nil {
			s.flusher.Flush()
		}
	}
	return nil
}

// streamChunk bounds how many rendered bytes EdgeBatch accumulates in
// the scratch buffer before handing them to the buffered writer.
const streamChunk = 32 << 10

// EdgeBatch renders a whole batch into the scratch buffer, paying the
// writer call once per chunk instead of once per edge.  The HTTP flush
// cadence is unchanged: the chunk still goes out (and the edge counter
// still advances) every streamFlushEdges edges, wherever those fall
// inside a batch.
func (s *streamSink) EdgeBatch(edges []exec.Edge) error {
	b := s.scratch[:0]
	for _, e := range edges {
		if s.ndjson {
			b = append(b, `{"v":`...)
			b = strconv.AppendInt(b, int64(e.V), 10)
			b = append(b, `,"w":`...)
			b = strconv.AppendInt(b, int64(e.W), 10)
			b = append(b, '}', '\n')
		} else {
			b = strconv.AppendInt(b, int64(e.V), 10)
			b = append(b, '\t')
			b = strconv.AppendInt(b, int64(e.W), 10)
			b = append(b, '\n')
		}
		s.n++
		s.batch++
		if s.batch >= streamFlushEdges || len(b) >= streamChunk {
			if _, err := s.bw.Write(b); err != nil {
				s.scratch = b[:0]
				return err
			}
			b = b[:0]
			if s.batch >= streamFlushEdges {
				s.batch = 0
				mStreamEdges.Add(streamFlushEdges)
				if err := s.bw.Flush(); err != nil {
					s.scratch = b
					return err
				}
				if s.flusher != nil {
					s.flusher.Flush()
				}
			}
		}
	}
	s.scratch = b
	if len(b) == 0 {
		return nil
	}
	_, err := s.bw.Write(b)
	return err
}

func (s *streamSink) Flush() error {
	mStreamEdges.Add(s.batch)
	s.batch = 0
	return s.bw.Flush()
}

func (s *streamSink) count() int64 { return s.n }

// edgeStreamSink is what the streaming handlers need from a rendering:
// the batched sink vocabulary, a flush, and the sent-edge count for the
// trailers.  streamSink (ndjson/tsv) and binSink (bin) implement it.
type edgeStreamSink interface {
	exec.Sink
	EdgeBatch(edges []exec.Edge) error
	Flush() error
	count() int64
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

	// The stream runs under the request context AND the job context:
	// client disconnects and DELETE /v1/jobs/{id} both abort it
	// mid-flight through the exec engine's cancellation contract.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(j.ctx, cancel)
	defer stop()

	w.Header().Set("Content-Type", contentTypeFor(format))
	w.Header().Set(HeaderStreamTotal, strconv.FormatInt(total, 10))
	w.Header().Set(HeaderStreamOffset, strconv.FormatInt(lo, 10))
	w.Header().Set("Trailer", streamTrailers(auditOn))
	w.WriteHeader(http.StatusOK)

	var auditor *audit.Auditor
	var auditCh exec.Sink
	var sent int64
	switch {
	case format == "bin" && !auditOn:
		// Binary streams (full or ranged) take the parallel span encoder:
		// framing is offset-deterministic, so spans encode concurrently
		// and concatenate into the exact serial byte stream.
		sent, err = streamBinParallel(ctx, w, j.product, lo, hi, s.cfg.Workers)
	default:
		var out edgeStreamSink
		if format == "bin" {
			out = newBinSink(w, j.product.TermEdgeStarts(), lo)
		} else {
			out = newStreamSink(w, format == "ndjson")
		}
		if ranged {
			// Range streams take the closed-form seek: no prefix work, no
			// audit (rejected above), one ordered walk of [lo, hi).
			var sinkErr error
			err = j.product.EachEdgeRangeBatchContext(ctx, lo, hi, func(batch []exec.Edge) bool {
				if e := out.EdgeBatch(batch); e != nil {
					sinkErr = e
					return false
				}
				return true
			})
			if err == nil {
				err = sinkErr
			}
		} else {
			sink := exec.Sink(out)
			if auditOn {
				auditor = audit.New(j.product, audit.Options{SampleEvery: s.cfg.AuditSample})
				auditCh = auditor.Stream().ForShard()
				sink = exec.MultiSink{out, auditCh}
			}
			err = j.product.StreamEdgesParallelContext(ctx, 1, func(int) exec.Sink { return sink })
		}
		_ = out.Flush() // deliver the tail even on an aborted stream
		sent = out.count()
	}

	status := "complete"
	if err != nil {
		status = "aborted"
		mStreamAborts.Inc()
	}
	if auditor != nil {
		if err == nil {
			report := auditor.Finalize()
			w.Header().Set(TrailerAuditChecks, strconv.Itoa(report.Checks))
			w.Header().Set(TrailerAuditViolations, strconv.Itoa(len(report.Violations)))
			if !report.OK() {
				status = "audit-violation"
			}
		} else {
			// Aborted audited stream: fold the shard child's tallies and
			// report the partial membership verdicts — announced
			// trailers always arrive.
			_ = exec.Finish(auditCh)
			checks, violations := auditor.Stream().Partial()
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
		w.Header().Set(http.TrailerPrefix+HeaderRequestID, ri.id)
	}
}
