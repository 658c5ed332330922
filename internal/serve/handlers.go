package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"kronbip/internal/cli"
	"kronbip/internal/graph"
	"kronbip/internal/obs"
	"kronbip/internal/spec"
)

// routes assembles the endpoint mux (middleware is layered on by New).
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/truth", s.handleTruth)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/edges", s.handleJobEdges)
	mux.HandleFunc("GET /v1/jobs/{id}/obs", s.handleJobObs)
	mux.HandleFunc("POST /v1/leases", s.handleLease)
	mux.Handle("GET /metrics", s.sloFresh(obs.Default.MetricsHandler()))
	mux.Handle("GET /metrics.json", s.sloFresh(obs.Default.JSONHandler()))
	mux.Handle("GET /debug/flightrecorder", obs.FlightHandler(obs.Default))
	return mux
}

// sloFresh re-evaluates the SLO window (rate-limited) before a metrics
// scrape so the serve.slo.* gauges a scraper reads are at most
// MinInterval stale — the scraper and the /readyz poller are jointly
// the evaluator's clock.
func (s *Server) sloFresh(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.slo.MaybeTick(time.Now())
		h.ServeHTTP(w, r)
	})
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// specFromQuery decodes the shared ?factor=&mode=&seed= fields through
// the same spec vocabulary the CLI flags resolve through.  factor may
// repeat: each occurrence appends one chain level, in query order, so
// ?factor=crown4&factor=path3 names the three-level chain exactly as the
// CLI's repeated -factor flag does.
func specFromQuery(q url.Values) (spec.Spec, error) {
	sp := spec.Spec{Factors: q["factor"], Mode: q.Get("mode"), Seed: spec.DefaultSeed}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return spec.Spec{}, fmt.Errorf("bad seed %q", v)
		}
		sp.Seed = seed
	}
	return sp.WithDefaults(), nil
}

// retryAfterSeconds renders a backoff hint as whole seconds for the
// Retry-After header: round up, then clamp to a minimum of 1.  The
// round-up alone only guards fractional seconds — a zero (or negative)
// duration would still render as "Retry-After: 0", telling saturated
// clients to hammer the server immediately.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeSaturated answers 429 with the Retry-After backoff hint.
func (s *Server) writeSaturated(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
	writeError(w, http.StatusTooManyRequests, "%v", ErrSaturated)
}

// admitWalk takes a walk slot for a request about to walk the product,
// or answers 429 + Retry-After, notes the rejection in the flight
// recorder under cat and returns false.  The caller releases the slot
// (s.mgr.walks.release) when its walk ends.
func (s *Server) admitWalk(w http.ResponseWriter, r *http.Request, cat string) bool {
	if s.mgr.walks.tryAcquire() {
		return true
	}
	obs.Flight.RecordNote(obs.FlightWarn, cat, "reject saturated", int64(s.cfg.MaxWalks), 0, requestFrom(r.Context()).id)
	s.writeSaturated(w)
	return false
}

// syncContext bounds a sync (non-streaming) handler by the configured
// request timeout.
func (s *Server) syncContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// handleHealthz is liveness: it answers 200 for as long as the process
// can serve HTTP at all — including during a drain, so an orchestrator
// does not kill a server that is still finishing audited jobs.
// Readiness (take me out of rotation) is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        cli.Build(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"jobs":           map[string]int{"running": s.mgr.running()},
	})
}

// handleReadyz is readiness: 503 while draining (shutdown started) or
// while the rolling-window SLO is burning, 200 otherwise.  Each poll
// advances the SLO evaluator (rate-limited to its MinInterval), so a
// load balancer's health checks double as the evaluation clock — no
// background goroutine needed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	st := s.slo.MaybeTick(time.Now())
	body := map[string]any{
		"status": "ready",
		"slo": map[string]any{
			"healthy":         st.Healthy,
			"window_seconds":  st.WindowSeconds,
			"window_requests": st.Requests,
			"window_errors":   st.Errors,
			"error_rate":      st.ErrorRate,
			"p50_ms":          float64(st.P50.Microseconds()) / 1000,
			"p99_ms":          float64(st.P99.Microseconds()) / 1000,
			"reason":          st.Reason,
		},
	}
	if !st.Healthy {
		body["status"] = "slo-burn"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// statsResponse is the /v1/stats payload: the Table I shape, answered
// entirely from factor closed forms.
type statsResponse struct {
	Spec             string        `json:"spec"`
	Mode             string        `json:"mode"`
	Arity            int           `json:"arity"`
	FactorA          factorStats   `json:"factor_a"`
	FactorB          factorStats   `json:"factor_b"` // the last chain factor
	Factors          []factorStats `json:"factors"`  // every factor, A first
	N                int           `json:"n"`
	NU               int           `json:"n_u"`
	NW               int           `json:"n_w"`
	NumEdges         int64         `json:"num_edges"`
	GlobalFourCycles int64         `json:"global_four_cycles"`
	Connected        bool          `json:"connected_by_theorem"`
}

type factorStats struct {
	N          int   `json:"n"`
	Edges      int   `json:"edges"`
	FourCycles int64 `json:"four_cycles"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.syncContext(r)
	defer cancel()
	sp, err := specFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := s.cache.get(sp)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := ctx.Err(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	fa, fb := p.FactorA(), p.FactorB()
	nu, nw := p.PartSizes()
	all := p.Factors()
	factors := make([]factorStats, len(all))
	for i, f := range all {
		factors[i] = factorStats{N: f.N(), Edges: f.G.NumEdges(), FourCycles: f.Global4}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Spec:             sp.Canonical(),
		Mode:             p.Mode().String(),
		Arity:            p.Arity(),
		FactorA:          factorStats{N: fa.N(), Edges: fa.G.NumEdges(), FourCycles: fa.Global4},
		FactorB:          factorStats{N: fb.N(), Edges: fb.G.NumEdges(), FourCycles: fb.Global4},
		Factors:          factors,
		N:                p.N(),
		NU:               nu,
		NW:               nw,
		NumEdges:         p.NumEdges(),
		GlobalFourCycles: p.GlobalFourCycles(),
		Connected:        p.ConnectedByTheorem(),
	})
}

// truthResponse is the /v1/truth payload: global plus optional vertex
// and edge point queries, all O(1) against factor state.
type truthResponse struct {
	Spec             string       `json:"spec"`
	N                int          `json:"n"`
	NumEdges         int64        `json:"num_edges"`
	GlobalFourCycles int64        `json:"global_four_cycles"`
	Vertex           *vertexTruth `json:"vertex,omitempty"`
	Edge             *edgeTruth   `json:"edge,omitempty"`
}

type vertexTruth struct {
	Vertex     int    `json:"vertex"`
	FactorA    int    `json:"factor_a"`
	FactorB    int    `json:"factor_b"` // digit of the last chain factor
	Digits     []int  `json:"digits"`   // full mixed-radix decomposition, A first
	Degree     int64  `json:"degree"`
	TwoWalks   int64  `json:"two_walks"`
	FourCycles int64  `json:"four_cycles"`
	Side       string `json:"side"`
}

type edgeTruth struct {
	V          int     `json:"v"`
	W          int     `json:"w"`
	FourCycles int64   `json:"four_cycles"`
	Clustering float64 `json:"clustering"`
}

func (s *Server) handleTruth(w http.ResponseWriter, r *http.Request) {
	_, cancel := s.syncContext(r)
	defer cancel()
	q := r.URL.Query()
	sp, err := specFromQuery(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := s.cache.get(sp)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := truthResponse{
		Spec:             sp.Canonical(),
		N:                p.N(),
		NumEdges:         p.NumEdges(),
		GlobalFourCycles: p.GlobalFourCycles(),
	}
	if v := q.Get("vertex"); v != "" {
		vi, err := strconv.Atoi(v)
		if err != nil || vi < 0 || vi >= p.N() {
			writeError(w, http.StatusBadRequest, "bad vertex %q (want [0,%d))", v, p.N())
			return
		}
		digits := p.DigitsOf(vi)
		side := "U"
		if p.SideOf(vi) == graph.SideW {
			side = "W"
		}
		resp.Vertex = &vertexTruth{
			Vertex:     vi,
			FactorA:    digits[0],
			FactorB:    digits[len(digits)-1],
			Digits:     digits,
			Degree:     p.DegreeAt(vi),
			TwoWalks:   p.TwoWalksAt(vi),
			FourCycles: p.VertexFourCyclesAt(vi),
			Side:       side,
		}
	}
	if e := q.Get("edge"); e != "" {
		sv, sw, ok := strings.Cut(e, ",")
		if !ok {
			writeError(w, http.StatusBadRequest, "bad edge %q (want 'v,w')", e)
			return
		}
		v, err1 := strconv.Atoi(sv)
		wv, err2 := strconv.Atoi(sw)
		if err1 != nil || err2 != nil {
			writeError(w, http.StatusBadRequest, "bad edge %q", e)
			return
		}
		sq, err := p.EdgeFourCyclesAt(v, wv)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		gamma, err := p.EdgeClusteringAt(v, wv)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp.Edge = &edgeTruth{V: v, W: wv, FourCycles: sq, Clustering: gamma}
	}
	writeJSON(w, http.StatusOK, resp)
}

// submitRequest is the POST /v1/jobs body; every field is optional.
// "factors" lists the chain levels in order; the singular "factor" is the
// historical one-level spelling and may not be combined with it.
type submitRequest struct {
	Factor  string   `json:"factor"`
	Factors []string `json:"factors"`
	Mode    string   `json:"mode"`
	Seed    *int64   `json:"seed"`
	Audit   *bool    `json:"audit"` // overrides the server-level default
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	_, cancel := s.syncContext(r)
	defer cancel()
	var req submitRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
	}
	if req.Factor != "" && len(req.Factors) > 0 {
		writeError(w, http.StatusBadRequest, `use either "factor" or "factors", not both`)
		return
	}
	factors := req.Factors
	if req.Factor != "" {
		factors = []string{req.Factor}
	}
	sp := spec.Spec{Factors: factors, Mode: req.Mode, Seed: spec.DefaultSeed}
	if req.Seed != nil {
		sp.Seed = *req.Seed
	}
	sp = sp.WithDefaults()
	p, err := s.cache.get(sp)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	auditOn := s.cfg.Audit
	if req.Audit != nil {
		auditOn = *req.Audit
	}
	// Idempotency key: same charset/length allowlist as request ids (the
	// key lands in logs and flight records the same way).  A present but
	// malformed key is a hard 400 — silently ignoring it would turn a
	// client that thinks it has retry protection into one that double-
	// submits.
	idemKey := r.Header.Get(HeaderIdempotencyKey)
	if idemKey != "" && !isSafeRequestID(idemKey) {
		writeError(w, http.StatusBadRequest,
			"bad %s: want 1..128 bytes of [A-Za-z0-9._:-]", HeaderIdempotencyKey)
		return
	}
	j, existing, err := s.mgr.submit(sp, p, auditOn, idemKey, requestFrom(r.Context()))
	switch {
	case errors.Is(err, ErrTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	case errors.Is(err, ErrSaturated):
		s.writeSaturated(w)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	if existing {
		// Replayed idempotency key: the work was already admitted, so the
		// answer is the existing job's current status — 200, not 202,
		// because nothing was accepted for processing by THIS request.
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.list()})
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.mgr.cancelJob(j)
	writeJSON(w, http.StatusOK, j.Status())
}
