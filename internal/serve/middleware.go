package serve

import (
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"time"

	"kronbip/internal/cli"
	"kronbip/internal/obs"
	"kronbip/internal/wire"
)

// statusWriter captures the response status and body byte count for
// metrics while keeping http.Flusher reachable for the streaming
// endpoint.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	bytes int64 // body bytes written (headers and trailers excluded)
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so edge streams can
// flush-on-batch through the middleware wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withMiddleware wraps the route mux with the service-wide concerns:
// request identity (request id + W3C trace context, accepted or minted,
// echoed on every response), request metrics — the unlabeled totals, the
// SLO traffic counters (non-probe routes only, so readiness/metrics
// polls never feed the evaluator that decides /readyz), plus the
// per-route RED series and the SLO latency histogram, the latter two
// gated on one obs.Enabled load per request (DESIGN.md §6a) — the
// logfmt access log, the version Server header, and panic recovery (a handler panic
// answers 500 and keeps the server up instead of killing the
// connection's goroutine with the process state unknown; the 500 reaches
// the RED error counter even when the handler had already written a
// success header).
func (s *Server) withMiddleware(h http.Handler) http.Handler {
	serverToken := cli.Build().ServerToken()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		enabled := obs.Enabled()
		ri := resolveIdentity(r)
		r = r.WithContext(withRequestInfo(r.Context(), ri))
		mRequests.Inc()
		hdr := w.Header()
		hdr.Set("Server", serverToken)
		hdr.Set(wire.HeaderRequestID, ri.id)
		hdr.Set(wire.HeaderTraceparent, ri.traceparent())
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			status := sw.code
			if p := recover(); p != nil {
				// A recovered panic is a 500 for accounting even when the
				// handler already committed a success header.
				status = http.StatusInternalServerError
				mPanics.Inc()
				mErrors.Inc()
				fmt.Fprintf(os.Stderr, "serve: panic in %s %s (req_id=%s): %v\n%s",
					r.Method, r.URL.Path, ri.id, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			} else if status >= 500 {
				mErrors.Inc()
			}
			elapsed := time.Since(start).Seconds()
			hRequestSecs.Observe(elapsed)
			route := routeLabel(r)
			probe := isProbeRoute(route)
			// SLO inputs see only real traffic: probe routes are excluded
			// so /readyz answering 503 during a burn (or /healthz and
			// /metrics polls) cannot feed the very error rate and latency
			// window the evaluator judges — otherwise a burn latches once
			// the load balancer pulls real traffic and only probes remain.
			if !probe {
				mSLORequests.Inc()
				if status >= 500 {
					mSLOErrors.Inc()
				}
			}
			if enabled {
				s.red.Route(route).Observe(status, elapsed, sw.bytes)
				// Streaming routes are excluded from the latency SLO: a
				// legitimate multi-minute edge stream or block lease is
				// not a burn.
				if !probe && route != "jobs.edges" && route != "leases" {
					s.sloHist.Observe(elapsed)
				}
			}
			// Flight trail: each non-probe request leaves one fixed-size
			// ring record — the dump's stand-in for the last N access-log
			// lines.  All fields are pre-existing (route is from the
			// static label table, ri.id was built for the response
			// header), so the append allocates nothing.  Probe routes are
			// skipped: a readiness poll every second would displace the
			// events a post-mortem actually needs.
			if !probe {
				sev := obs.FlightInfo
				if status >= 500 {
					sev = obs.FlightWarn
				}
				obs.Flight.RecordNote(sev, "http", route, int64(status), int64(elapsed*1e6), ri.id)
			}
			s.logAccess(r, ri, route, status, sw.bytes, elapsed)
		}()
		h.ServeHTTP(sw, r)
	})
}

// logAccess emits one logfmt access-log line when the server has an
// access-log writer; a nil writer costs one comparison.  The mutex keeps
// concurrent request lines whole.
func (s *Server) logAccess(r *http.Request, ri requestInfo, route string, status int, bytes int64, seconds float64) {
	if s.cfg.AccessLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.cfg.AccessLog,
		"access t=%s method=%s path=%q route=%s status=%d bytes=%d dur_ms=%.3f req_id=%s trace_id=%s\n",
		time.Now().UTC().Format(time.RFC3339Nano), r.Method, r.URL.RequestURI(),
		route, status, bytes, seconds*1000, ri.id, ri.traceID)
}
