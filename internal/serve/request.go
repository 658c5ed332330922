package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"kronbip/internal/wire"
)

// Request identity and trace propagation.  Every request gets a request
// id (accepted from X-Kronbip-Request-Id or generated) and a W3C trace
// context (traceparent accepted or generated, always re-signed with a
// fresh span id for this hop).  Both are echoed on the response, stamped
// on every access-log line, threaded into the job a submission creates,
// and — for edge streams — repeated as a trailer so a consumer that
// piped the body somewhere can still recover the correlation key at EOF.
//
// Identity generation is deliberately cheap (DESIGN.md §6a): one
// crypto/rand read at process start seeds a 16-hex process prefix, and
// each id after that is the prefix plus an atomic counter — no
// per-request crypto, no allocation beyond the string itself.

// HeaderIdempotencyKey makes POST /v1/jobs retry-safe: a resubmission
// carrying a key already bound to a job gets that job's status back
// (200) instead of enqueueing a duplicate — the contract a dist-gen
// coordinator relies on after a dropped response.  Keys share the
// request-id charset/length allowlist (they land in logs the same way).
const HeaderIdempotencyKey = "X-Kronbip-Idempotency-Key"

// procPrefix is the process-unique 16-hex identity prefix; reqSeq
// disambiguates requests within the process.
var (
	procPrefix = func() string {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is a broken platform; fall back to a
			// fixed prefix rather than refusing to serve.
			return "0000000000000000"
		}
		return hex.EncodeToString(b[:])
	}()
	reqSeq atomic.Uint64
)

// newRequestID returns a fresh request id: "req-<prefix>-<n>".
func newRequestID() string {
	return fmt.Sprintf("req-%s-%d", procPrefix, reqSeq.Add(1))
}

// newTraceID returns a fresh 32-hex W3C trace id (process prefix +
// counter half), unique per process without per-request crypto.
func newTraceID() string {
	return fmt.Sprintf("%s%016x", procPrefix, reqSeq.Add(1))
}

// newSpanID returns a fresh 16-hex W3C span id.
func newSpanID() string {
	return fmt.Sprintf("%016x", reqSeq.Add(1))
}

// requestInfo is the per-request correlation identity, carried on the
// request context from the middleware down to handlers and the job
// manager.
type requestInfo struct {
	id      string // request id (client-supplied or generated)
	traceID string // 32-hex W3C trace id
	spanID  string // this hop's 16-hex span id
}

// traceparent renders the info as an outgoing W3C traceparent value.
func (ri requestInfo) traceparent() string {
	return "00-" + ri.traceID + "-" + ri.spanID + "-01"
}

type requestInfoKey struct{}

// requestFrom extracts the correlation identity installed by
// withMiddleware; the zero value outside it (direct handler tests).
func requestFrom(ctx context.Context) requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(requestInfo)
	return ri
}

// withRequestInfo installs the identity on a context.
func withRequestInfo(ctx context.Context, ri requestInfo) context.Context {
	return context.WithValue(ctx, requestInfoKey{}, ri)
}

// isHex reports whether s is exactly n lowercase hex digits.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// parseTraceparent validates an incoming traceparent header per the W3C
// trace-context spec (version-traceid-spanid-flags) and returns the
// trace id it carries.  Invalid values are ignored — the middleware
// starts a fresh trace rather than propagating garbage.
func parseTraceparent(v string) (traceID string, ok bool) {
	parts := strings.Split(v, "-")
	if len(parts) < 4 {
		return "", false
	}
	ver, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if !isHex(ver, 2) || ver == "ff" {
		return "", false
	}
	if !isHex(tid, 32) || tid == strings.Repeat("0", 32) {
		return "", false
	}
	if !isHex(sid, 16) || sid == strings.Repeat("0", 16) {
		return "", false
	}
	if !isHex(flags, 2) {
		return "", false
	}
	return tid, true
}

// isSafeRequestID reports whether a client-supplied request id is
// accepted: 1..128 bytes, every byte in [A-Za-z0-9._:-].  The id lands
// verbatim in logfmt access-log lines, response headers, and the
// timeline journal/Chrome-trace export, so this is an allowlist, not a
// denylist — control bytes (terminal escapes, log injection) and
// invalid UTF-8 (which Go's %q renders as \x.. escapes that are not
// legal JSON string escapes) must never get through.
func isSafeRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// resolveIdentity builds the request's correlation identity: honor a
// client-supplied request id (allowlisted charset, bounded) and
// traceparent, generate what is missing, and always mint a fresh span
// id for this hop.
func resolveIdentity(r *http.Request) requestInfo {
	ri := requestInfo{spanID: newSpanID()}
	if id := r.Header.Get(wire.HeaderRequestID); isSafeRequestID(id) {
		ri.id = id
	} else {
		ri.id = newRequestID()
	}
	if tid, ok := parseTraceparent(r.Header.Get(wire.HeaderTraceparent)); ok {
		ri.traceID = tid
	} else {
		ri.traceID = newTraceID()
	}
	return ri
}

// routeLabel maps a request to its bounded metric label — the RED series
// cardinality contract.  Path parameters collapse (every job id is
// "jobs.get") and unknown paths collapse to "other", so a scanner
// spraying random URLs cannot grow the registry.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/healthz":
		return "healthz"
	case p == "/readyz":
		return "readyz"
	case p == "/metrics":
		return "metrics"
	case p == "/metrics.json":
		return "metrics.json"
	case p == "/debug/flightrecorder":
		return "debug.flight"
	case p == "/v1/stats":
		return "stats"
	case p == "/v1/truth":
		return "truth"
	case p == "/v1/leases":
		return "leases"
	case p == "/v1/jobs":
		if r.Method == http.MethodPost {
			return "jobs.submit"
		}
		return "jobs.list"
	case strings.HasPrefix(p, "/v1/jobs/"):
		// Match the full /v1/jobs/{id}[/edges|/obs] shape by segment
		// count, not by suffix: a job id literally named "edges" is a
		// jobs.get, and /v1/jobs/{id}/edges/extra (a 404) must not be
		// attributed to the jobs.edges series — suffix matching would
		// let such requests escape the SLO latency exclusion or borrow
		// a route they never reached.
		seg := strings.Split(p[len("/v1/jobs/"):], "/")
		switch {
		case len(seg) == 1 && seg[0] != "":
			if r.Method == http.MethodDelete {
				return "jobs.cancel"
			}
			return "jobs.get"
		case len(seg) == 2 && seg[0] != "" && seg[1] == "edges":
			return "jobs.edges"
		case len(seg) == 2 && seg[0] != "" && seg[1] == "obs":
			return "jobs.obs"
		default:
			return "other"
		}
	default:
		return "other"
	}
}

// isProbeRoute reports whether a route label is operational probe
// traffic — readiness/liveness polls and metrics scrapes.  Probe routes
// are excluded from the SLO's request/error/latency inputs: /readyz
// answers 503 during a burn, and feeding those 503s back into the
// windowed error rate would latch readiness down forever once a load
// balancer pulls real traffic (the window would hold nothing but
// failing probes).
func isProbeRoute(route string) bool {
	switch route {
	case "healthz", "readyz", "metrics", "metrics.json", "debug.flight":
		return true
	}
	return false
}

// routeLabels is the full route-label set, pre-resolved at server
// construction so the RED table never grows on the request path and the
// exported metric-name table is deterministic from the first scrape.
var routeLabels = []string{
	"healthz", "readyz", "metrics", "metrics.json", "debug.flight",
	"stats", "truth", "jobs.submit", "jobs.list", "jobs.get",
	"jobs.cancel", "jobs.edges", "jobs.obs", "leases", "other",
}
