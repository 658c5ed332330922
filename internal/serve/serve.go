// Package serve exposes the generation pipeline as a long-running HTTP
// service — the query shape the paper's ground truth is built for: all
// of a product's global 4-cycle/degree/community statistics live in
// O(|E_C|^(1/2)) factor state, so a tiny resident server can answer
// global queries about astronomically large products and stream their
// edge lists on demand without ever materializing them.
//
// The service has four layers:
//
//   - Jobs (jobs.go): a job is priced, not generated.  POST /v1/jobs
//     builds the spec's factors (cached), prices |E_C| and □(C) in
//     closed form and answers with the job already done; an audited
//     job runs the stream-free audit checks on its own goroutine and is
//     running until they report.  DELETE /v1/jobs/{id} moves a job to
//     cancelled from any state, and a bounded set of recent jobs is
//     retained for polling.
//   - Admission control (jobs.go, handlers.go, middleware.go): every
//     request that walks the product — an edge stream, a lease, an
//     audited job's checks — takes a slot of one cap (Config.MaxWalks)
//     or is answered 429 with Retry-After; a spec whose closed-form
//     |E_C| exceeds the per-job budget is rejected with 413 before any
//     work; sync endpoints run under a request timeout; every handler
//     sits behind panic recovery; shutdown drains audited runs first.
//   - Sync ground truth (handlers.go): GET /v1/truth and /v1/stats
//     answer from the factor closed forms alone, through an LRU cache
//     keyed by canonical factor spec (cache.go) so repeated queries for
//     popular factors skip factor construction entirely.
//   - Streaming output (stream.go): GET /v1/jobs/{id}/edges re-streams
//     the job's deterministic edge list as NDJSON, TSV or bin with
//     flush-on-batch, optionally auditing the stream online
//     (internal/audit) and reporting the outcome in HTTP trailers.
//
// Everything is instrumented through internal/obs (request counters,
// the running-audit gauge, cache hit/miss counters, per-job timeline
// lanes) and exported on /metrics and /metrics.json.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/obs"
)

// Service metrics, published on obs.Default.  Serve accounting is
// per-request/per-job (never per edge), so unlike the generation hot
// paths it does not gate on obs.Enabled — see DESIGN.md §6a.
var (
	mRequests    = obs.Default.Counter("serve.http.requests")
	mErrors      = obs.Default.Counter("serve.http.errors") // 5xx responses
	mPanics      = obs.Default.Counter("serve.http.panics")
	hRequestSecs = obs.Default.Histogram("serve.http.seconds")
	// SLO traffic inputs: real (non-probe) requests and their 5xx
	// responses.  The evaluator must never judge its own probe traffic —
	// if /readyz 503s fed serve.slo.errors, a burn would latch: the load
	// balancer pulls real traffic, the window fills with failing readiness
	// polls, and the error rate pins at 100% after the fault clears.  The
	// middleware advances these only for routes outside isProbeRoute.
	mSLORequests  = obs.Default.Counter("serve.slo.requests")
	mSLOErrors    = obs.Default.Counter("serve.slo.errors")
	mCacheHits    = obs.Default.Counter("serve.cache.hits")
	mCacheMisses  = obs.Default.Counter("serve.cache.misses")
	gCacheSize    = obs.Default.Gauge("serve.cache.size")
	gJobsRunning  = obs.Default.Gauge("serve.jobs.running") // audited jobs whose checks are in flight
	mSubmitted    = obs.Default.Counter("serve.jobs.submitted")
	mIdemReplays  = obs.Default.Counter("serve.jobs.idem_replays") // resubmissions answered from the idempotency index
	mRejected     = obs.Default.Counter("serve.jobs.rejected")     // 429 + 413 + 503
	mJobsDone     = obs.Default.Counter("serve.jobs.done")
	mJobsFailed   = obs.Default.Counter("serve.jobs.failed")
	mJobsCancel   = obs.Default.Counter("serve.jobs.cancelled")
	mStreamEdges  = obs.Default.Counter("serve.stream.edges") // edges sent to clients, batched
	mStreamAborts = obs.Default.Counter("serve.stream.aborts")
)

// DefaultMaxEdges is the default per-job closed-form edge budget: large
// enough for every spec the experiment suite generates, small enough
// that a runaway sf spec cannot hold a walk slot for hours.
const DefaultMaxEdges = int64(1) << 33

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// MaxEdges rejects any spec whose closed-form |E_C| exceeds it with
	// 413, before any work (default DefaultMaxEdges; negative disables
	// the budget).
	MaxEdges int64
	// RequestTimeout bounds the sync endpoints — truth, stats, submit
	// (default 30s).  Streaming responses are governed by the job
	// context instead.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint sent with 429 (default 1s).
	RetryAfter time.Duration
	// Retention is how many finished jobs stay pollable before the
	// oldest are evicted (default 64).
	Retention int
	// CacheSize is the factor-spec product cache capacity (default 128).
	CacheSize int
	// MaxWalks caps the requests that walk the product at once: edge
	// streams, block leases (POST /v1/leases) and audited jobs' checks.
	// One more is answered 429 + Retry-After, so a client backs off and
	// a dist-gen coordinator routes the block to another replica instead
	// of queueing (default twice the exec engine's default worker
	// count, exec.Workers(0, ·)).
	MaxWalks int
	// Audit makes every job audited unless its request says otherwise
	// (the per-request "audit" field overrides).
	Audit bool
	// AuditSample is the edge-membership sampling stride of ?audit=1
	// streams (0 = the audit package default).
	AuditSample int
	// SLOWindow is the rolling span the SLO evaluator judges over
	// (default 60s).
	SLOWindow time.Duration
	// SLOP99 is the latency objective for the non-streaming routes:
	// windowed p99 above it flips /readyz to 503 (0 keeps the default
	// 1s; negative disables the latency objective — a zero-latency
	// objective is not expressible, matching obs.SLOOptions).
	SLOP99 time.Duration
	// SLOErrorRate is the 5xx error-rate objective as a fraction.  Nil
	// selects the default 0.05; pointing at 0 means zero tolerance
	// (any windowed 5xx burns); pointing at a negative value disables
	// the error objective — the same vocabulary as obs.SLOOptions.
	SLOErrorRate *float64
	// AccessLog, when non-nil, receives one logfmt line per request
	// carrying method, route, status, bytes, duration and the request/
	// trace ids.  Nil disables access logging entirely.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxEdges == 0 {
		c.MaxEdges = DefaultMaxEdges
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Retention <= 0 {
		c.Retention = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.MaxWalks <= 0 {
		c.MaxWalks = 2 * exec.Workers(0, math.MaxInt)
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = time.Minute
	}
	if c.SLOP99 == 0 {
		c.SLOP99 = time.Second
	}
	if c.SLOErrorRate == nil {
		rate := 0.05
		c.SLOErrorRate = &rate
	}
	return c
}

// Server is one service instance: the HTTP surface plus its job manager
// and product cache.  Construct with New, expose via Handler (tests) or
// Listen+Serve (production), stop with Shutdown.
type Server struct {
	cfg     Config
	mgr     *manager
	cache   *productCache
	handler http.Handler
	httpSrv *http.Server
	ln      net.Listener
	started time.Time

	// Observability state: the per-route RED resolver, the SLO latency
	// source (non-streaming routes only) and the rolling-window
	// evaluator behind /readyz.  draining flips readiness ahead of
	// shutdown so a load balancer stops routing before the listener
	// closes; logMu keeps concurrent access-log lines whole.
	red      *obs.RED
	sloHist  *obs.Histogram
	slo      *obs.SLO
	draining atomic.Bool
	logMu    sync.Mutex
}

// walkCap is the one admission rule for work that walks the product:
// an edge stream, a lease and an audited job's checks each hold one
// slot for as long as they walk.  A request that finds every slot taken
// is answered 429 + Retry-After instead of queueing — a synchronous
// walk that waited would only hold its client's connection open.
type walkCap chan struct{}

// tryAcquire takes a slot if one is free.
func (c walkCap) tryAcquire() bool {
	select {
	case c <- struct{}{}:
		return true
	default:
		return false
	}
}

// release frees a slot taken by tryAcquire.
func (c walkCap) release() { <-c }

// New builds a Server from cfg; call Shutdown to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newProductCache(cfg.CacheSize),
		mgr:     newManager(cfg),
		started: time.Now(),
		red:     obs.NewRED(obs.Default, "serve.http"),
		sloHist: obs.Default.Histogram("serve.slo.seconds"),
	}
	// The evaluator reads the dedicated serve.slo.* traffic counters, not
	// serve.http.*: probe routes (readyz/healthz/metrics) never reach the
	// SLO inputs, so readiness polls during a burn cannot keep the burn
	// alive after real traffic recovers.
	s.slo = obs.NewSLO(obs.Default, "serve.slo", s.sloHist, mSLORequests, mSLOErrors, obs.SLOOptions{
		Window:       cfg.SLOWindow,
		P99Max:       cfg.SLOP99,
		ErrorRateMax: *cfg.SLOErrorRate,
	})
	// Pre-resolve the full route-label table so the RED map never grows
	// on the request path and the exported name set is deterministic
	// from the first scrape.
	for _, route := range routeLabels {
		s.red.Route(route)
	}
	s.handler = s.withMiddleware(s.routes())
	return s
}

// Handler returns the fully-assembled HTTP handler (middleware
// included), for httptest-based exercising without a listener.
func (s *Server) Handler() http.Handler { return s.handler }

// Listen binds the server to addr (":0" picks a free port; see Addr).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address; empty before Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until ctx is cancelled (SIGINT in the CLI),
// then shuts down gracefully within drainTimeout: submissions are
// refused, audited runs drain to completion, in-flight HTTP responses
// (including edge streams) finish, and the listener closes.  A clean
// drain returns nil — the CLI maps that to exit 0 — and an overrun
// drain returns the drain error.
func (s *Server) Serve(ctx context.Context, drainTimeout time.Duration) error {
	if s.ln == nil {
		return errors.New("serve: Serve called before Listen")
	}
	s.httpSrv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- s.httpSrv.Serve(s.ln) }()
	select {
	case err := <-errc:
		// Listener failure: force-stop the job manager, nothing to drain
		// for.
		s.mgr.close()
		return err
	case <-ctx.Done():
	}
	return s.Shutdown(drainTimeout)
}

// Shutdown drains the server: new submissions are refused (503),
// audited runs finish, then in-flight HTTP exchanges complete — all
// bounded by drainTimeout, after which remaining work is cancelled
// hard.  Safe to call without Serve (httptest usage).
func (s *Server) Shutdown(drainTimeout time.Duration) error {
	s.draining.Store(true) // /readyz answers 503 for the whole drain
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.mgr.drain(dctx)
	if s.httpSrv != nil {
		if herr := s.httpSrv.Shutdown(dctx); herr != nil && err == nil {
			err = herr
		}
	}
	s.mgr.close()
	return err
}
