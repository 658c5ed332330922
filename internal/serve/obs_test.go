package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
	"kronbip/internal/wire"
)

// Tests for the observability layer: request identity, RED recording,
// the SLO-driven /readyz, the per-job obs endpoint, and the exported
// metric-name contract.

func TestStatusWriterCountsBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, code: http.StatusOK}
	sw.WriteHeader(http.StatusTeapot)
	if _, err := sw.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if sw.bytes != 11 {
		t.Errorf("bytes = %d, want 11", sw.bytes)
	}
	if sw.code != http.StatusTeapot {
		t.Errorf("code = %d, want 418", sw.code)
	}
}

func TestRouteLabelTable(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"GET", "/healthz", "healthz"},
		{"GET", "/readyz", "readyz"},
		{"GET", "/metrics", "metrics"},
		{"GET", "/metrics.json", "metrics.json"},
		{"GET", "/v1/stats", "stats"},
		{"GET", "/v1/truth", "truth"},
		{"POST", "/v1/jobs", "jobs.submit"},
		{"GET", "/v1/jobs", "jobs.list"},
		{"GET", "/v1/jobs/j17", "jobs.get"},
		{"DELETE", "/v1/jobs/j17", "jobs.cancel"},
		{"GET", "/v1/jobs/j17/edges", "jobs.edges"},
		{"GET", "/v1/jobs/j17/obs", "jobs.obs"},
		// A job id literally named "edges"/"obs" is a jobs.get (the mux
		// answers it from the {id} handler), and deeper paths are 404s —
		// neither may borrow the jobs.edges/jobs.obs series.
		{"GET", "/v1/jobs/edges", "jobs.get"},
		{"GET", "/v1/jobs/obs", "jobs.get"},
		{"DELETE", "/v1/jobs/edges", "jobs.cancel"},
		{"GET", "/v1/jobs/j17/edges/extra", "other"},
		{"GET", "/v1/jobs/j17/unknown", "other"},
		{"GET", "/v1/jobs//edges", "other"},
		{"GET", "/favicon.ico", "other"},
		{"GET", "/v1/unknown", "other"},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		r := httptest.NewRequest(c.method, c.path, nil)
		if got := routeLabel(r); got != c.want {
			t.Errorf("routeLabel(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
		seen[c.want] = true
	}
	// Every label the table can produce is pre-resolved at startup, so
	// the RED map never grows on the request path.
	warm := map[string]bool{}
	for _, l := range routeLabels {
		warm[l] = true
	}
	for label := range seen {
		if !warm[label] {
			t.Errorf("route label %q is reachable but not pre-warmed in routeLabels", label)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if tid, ok := parseTraceparent(valid); !ok || tid != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("valid traceparent rejected: %q %v", tid, ok)
	}
	invalid := []string{
		"",
		"garbage",
		"00-zzzz2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex trace id
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // all-zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
	}
	for _, v := range invalid {
		if _, ok := parseTraceparent(v); ok {
			t.Errorf("parseTraceparent(%q) accepted, want rejected", v)
		}
	}
}

// TestSafeRequestID: the client-supplied id charset is an allowlist —
// anything that could carry a terminal escape, split a logfmt line, or
// produce a non-JSON %q escape in the trace export is replaced.
func TestSafeRequestID(t *testing.T) {
	good := []string{"a", "req-0123abcd-42", "A.b:C_d-9", strings.Repeat("x", 128)}
	for _, id := range good {
		if !isSafeRequestID(id) {
			t.Errorf("isSafeRequestID(%q) = false, want accepted", id)
		}
	}
	bad := []string{
		"",
		strings.Repeat("x", 129),
		"has space",
		"tab\there",
		"newline\n",
		`quo"te`,
		"esc\x1b[31mred",  // terminal escape
		"nul\x00byte",     // control byte
		"caf\xc3\xa9",     // valid UTF-8, bytes outside the allowlist
		"invalid\xffutf8", // invalid UTF-8
		"slash/path",
		"eq=uals",
	}
	for _, id := range bad {
		if isSafeRequestID(id) {
			t.Errorf("isSafeRequestID(%q) = true, want rejected", id)
		}
	}
}

// TestRequestIdentityEcho: the middleware honors supplied correlation
// headers and mints what is missing; every response carries both.
func TestRequestIdentityEcho(t *testing.T) {
	_, ts := testServer(t, Config{})

	// No headers supplied: both are generated.
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	rid := res.Header.Get(wire.HeaderRequestID)
	if !strings.HasPrefix(rid, "req-") {
		t.Errorf("generated request id = %q, want req-... form", rid)
	}
	tp := res.Header.Get(wire.HeaderTraceparent)
	if _, ok := parseTraceparent(tp); !ok {
		t.Errorf("generated traceparent %q does not parse", tp)
	}

	// Supplied: the request id echoes verbatim, the trace id propagates
	// with a fresh span id for this hop.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(wire.HeaderRequestID, "client-req-7")
	req.Header.Set(wire.HeaderTraceparent, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := res.Header.Get(wire.HeaderRequestID); got != "client-req-7" {
		t.Errorf("request id = %q, want the supplied client-req-7", got)
	}
	tp = res.Header.Get(wire.HeaderTraceparent)
	if !strings.HasPrefix(tp, "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Errorf("traceparent = %q, want the supplied trace id", tp)
	}
	if strings.Contains(tp, "00f067aa0ba902b7") {
		t.Errorf("traceparent = %q reuses the caller's span id, want a fresh hop span", tp)
	}

	// A garbage request id is replaced, not echoed (header injection).
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(wire.HeaderRequestID, `evil" injected`)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := res.Header.Get(wire.HeaderRequestID); !strings.HasPrefix(got, "req-") {
		t.Errorf("request id = %q, want the garbage id replaced", got)
	}

	// A control byte the Go client would refuse to send can still arrive
	// from a raw socket; resolveIdentity must mint a replacement.
	raw := httptest.NewRequest("GET", "/healthz", nil)
	raw.Header.Set(wire.HeaderRequestID, "esc\x1b[2Jwipe")
	if ri := resolveIdentity(raw); !strings.HasPrefix(ri.id, "req-") {
		t.Errorf("request id for escape-byte header = %q, want minted", ri.id)
	}
}

// TestPanicRecoveryRecordsREDError: a handler panic surfaces as a 500
// in the per-route RED error counter even though the panic, not the
// handler, decided the status.
func TestPanicRecoveryRecordsREDError(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s := New(Config{Workers: 1})
	defer s.Shutdown(time.Second)
	ts := httptest.NewServer(s.withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})))
	defer ts.Close()

	errBefore := obs.Default.Counter(obs.Labeled("serve.http.errors", "route", "truth")).Value()
	reqBefore := obs.Default.Counter(obs.Labeled("serve.http.requests", "route", "truth")).Value()
	res, err := http.Get(ts.URL + "/v1/truth")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", res.StatusCode)
	}
	if got := obs.Default.Counter(obs.Labeled("serve.http.errors", "route", "truth")).Value(); got != errBefore+1 {
		t.Errorf("RED error counter advanced by %d, want 1", got-errBefore)
	}
	if got := obs.Default.Counter(obs.Labeled("serve.http.requests", "route", "truth")).Value(); got != reqBefore+1 {
		t.Errorf("RED request counter advanced by %d, want 1", got-reqBefore)
	}
}

// TestPanicAfterHeaderStillCountsError: a panic after a committed 200
// header still reaches the error counters — the client sees a broken
// body, and the metrics must agree something went wrong.
func TestPanicAfterHeaderStillCountsError(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s := New(Config{Workers: 1})
	defer s.Shutdown(time.Second)
	ts := httptest.NewServer(s.withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("late boom")
	})))
	defer ts.Close()

	before := obs.Default.Counter(obs.Labeled("serve.http.errors", "route", "healthz")).Value()
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := obs.Default.Counter(obs.Labeled("serve.http.errors", "route", "healthz")).Value(); got != before+1 {
		t.Errorf("RED error counter advanced by %d, want 1 (late panic lost)", got-before)
	}
}

// syncBuffer is a mutex-guarded buffer for access-log assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogCarriesIdentity: every access-log line is logfmt with the
// route label, status, and the request/trace ids.
func TestAccessLogCarriesIdentity(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := testServer(t, Config{AccessLog: logBuf})
	req, _ := http.NewRequest("GET", ts.URL+"/v1/truth?factor=crown4", nil)
	req.Header.Set(wire.HeaderRequestID, "log-req-1")
	req.Header.Set(wire.HeaderTraceparent, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	// The log line lands after the handler returns; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var line string
	for time.Now().Before(deadline) {
		if s := logBuf.String(); strings.Contains(s, "log-req-1") {
			line = s
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, want := range []string{
		"access t=", "method=GET", "route=truth", "status=200",
		"req_id=log-req-1", "trace_id=4bf92f3577b34da6a3ce929d0e0e4736",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line missing %q:\n%s", want, line)
		}
	}
}

// TestHealthzStaysUpWhileReadyzDrains: during a shutdown drain the
// process is still alive (healthz 200, jobs finishing) but must leave
// the load balancer rotation (readyz 503).
func TestHealthzStaysUpWhileReadyzDrains(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 4})
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Before the drain both report healthy.
	res := getJSON(t, ts.URL+"/readyz", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain readyz = %d, want 200", res.StatusCode)
	}

	st, res := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "running")

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(5 * time.Second) }()

	// Wait for the drain flag to take effect.
	deadline := time.Now().Add(2 * time.Second)
	ready := -1
	for time.Now().Before(deadline) {
		res := getJSON(t, ts.URL+"/readyz", nil)
		ready = res.StatusCode
		if ready == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ready != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", ready)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if res := getJSON(t, ts.URL+"/healthz", &hz); res.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz during drain = %d %q, want 200 ok", res.StatusCode, hz.Status)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestReadyzFlipsOnSLOBurn: a latency burn in the rolling window turns
// /readyz into a 503 with the burning objective named, and the healthy
// gauge drops to 0.
func TestReadyzFlipsOnSLOBurn(t *testing.T) {
	s, ts := testServer(t, Config{})

	if res := getJSON(t, ts.URL+"/readyz", nil); res.StatusCode != http.StatusOK {
		t.Fatalf("baseline readyz = %d, want 200", res.StatusCode)
	}

	// Burn: a pile of 10s observations lands far past the 1s default
	// p99 objective.  Tick directly (tests own the clock); the readyz
	// poll inside MinInterval then reads the cached burn status.
	for i := 0; i < 100; i++ {
		s.sloHist.Observe(10)
	}
	if st := s.slo.Tick(time.Now()); st.Healthy {
		t.Fatalf("tick after burn still healthy: %+v", st)
	}

	var body struct {
		Status string `json:"status"`
		SLO    struct {
			Healthy bool   `json:"healthy"`
			Reason  string `json:"reason"`
		} `json:"slo"`
	}
	res := getJSON(t, ts.URL+"/readyz", &body)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during burn = %d, want 503", res.StatusCode)
	}
	if body.Status != "slo-burn" || body.SLO.Healthy || !strings.Contains(body.SLO.Reason, "p99") {
		t.Errorf("burn payload = %+v, want slo-burn with a p99 reason", body)
	}
	if got := obs.Default.Gauge("serve.slo.healthy").Value(); got != 0 {
		t.Errorf("serve.slo.healthy = %d, want 0 during burn", got)
	}
}

// TestProbeRoutesExcludedFromSLO: probe traffic (readyz/healthz/metrics
// polls) never advances the SLO's request/error counters or latency
// histogram — otherwise /readyz answering 503 during a burn would feed
// the windowed error rate it is judged by, and readiness would latch
// down after a load balancer pulls real traffic (the reviewer's
// feedback-loop scenario).
func TestProbeRoutesExcludedFromSLO(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s := New(Config{Workers: 1})
	defer s.Shutdown(time.Second)
	// Every route answers 503 — the shape probe polls take while the
	// server is draining or burning.
	ts := httptest.NewServer(s.withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, "burning")
	})))
	defer ts.Close()

	reqBefore, errBefore := mSLORequests.Value(), mSLOErrors.Value()
	for _, p := range []string{"/readyz", "/healthz", "/metrics", "/metrics.json"} {
		res, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s = %d, want 503", p, res.StatusCode)
		}
	}
	if got := mSLORequests.Value(); got != reqBefore {
		t.Errorf("probe polls advanced serve.slo.requests by %d, want 0", got-reqBefore)
	}
	if got := mSLOErrors.Value(); got != errBefore {
		t.Errorf("probe 503s advanced serve.slo.errors by %d, want 0", got-errBefore)
	}

	// Real traffic still reaches the SLO inputs: one 503 on a non-probe
	// route advances both counters.
	res, err := http.Get(ts.URL + "/v1/truth")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got := mSLORequests.Value(); got != reqBefore+1 {
		t.Errorf("serve.slo.requests advanced by %d for real traffic, want 1", got-reqBefore)
	}
	if got := mSLOErrors.Value(); got != errBefore+1 {
		t.Errorf("serve.slo.errors advanced by %d for a real 503, want 1", got-errBefore)
	}
}

// TestZeroToleranceErrorObjective: a library caller can express the
// zero-tolerance error objective (SLOOptions' 0) through serve.Config —
// a single windowed 5xx on real traffic burns the SLO.
func TestZeroToleranceErrorObjective(t *testing.T) {
	zero := 0.0
	s := New(Config{Workers: 1, SLOErrorRate: &zero})
	defer s.Shutdown(time.Second)
	ts := httptest.NewServer(s.withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusInternalServerError, "boom")
	})))
	defer ts.Close()

	res, err := http.Get(ts.URL + "/v1/truth")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	st := s.slo.Tick(time.Now())
	if st.Errors == 0 {
		t.Fatalf("window saw no errors: %+v", st)
	}
	if st.Healthy || !strings.Contains(st.Reason, "error rate") {
		t.Errorf("zero-tolerance objective did not burn on a 5xx: %+v", st)
	}
}

// TestJobObsEndpoint: the per-job observability view carries the
// submitting request's identity, the throughput figure, and — with
// timeline recording on — the job-lane events annotated with that
// identity (the acceptance check that a supplied traceparent reaches
// the job's timeline lane).
func TestJobObsEndpoint(t *testing.T) {
	timeline.Default.Reset()
	timeline.SetEnabled(true)
	t.Cleanup(func() {
		timeline.SetEnabled(false)
		timeline.Default.Reset()
	})
	_, ts := testServer(t, Config{Workers: 1})

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs",
		strings.NewReader(`{"factor":"crown4","mode":"selfloop","seed":1}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.HeaderRequestID, "obs-req-1")
	req.Header.Set(wire.HeaderTraceparent, "00-"+traceID+"-00f067aa0ba902b7-01")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.RequestID != "obs-req-1" || st.TraceID != traceID {
		t.Fatalf("job status identity = %q/%q, want the submitted pair", st.RequestID, st.TraceID)
	}
	waitState(t, ts.URL, st.ID, "done")

	var ob jobObsResponse
	if res := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/obs", &ob); res.StatusCode != http.StatusOK {
		t.Fatalf("obs endpoint = %d, want 200", res.StatusCode)
	}
	if !ob.TimelineEnabled {
		t.Error("timeline_enabled = false, want true")
	}
	if ob.RequestID != "obs-req-1" || ob.TraceID != traceID {
		t.Errorf("obs identity = %q/%q, want the submitted pair", ob.RequestID, ob.TraceID)
	}
	if ob.EdgesStreamed <= 0 || ob.EdgesPerSecond <= 0 {
		t.Errorf("throughput = %d edges, %v edges/s, want positive", ob.EdgesStreamed, ob.EdgesPerSecond)
	}
	if len(ob.JobEvents) == 0 {
		t.Fatal("job_events empty, want the serve.job lane event")
	}
	ev := ob.JobEvents[0]
	if ev.Name != "serve.job" || !ev.OK {
		t.Errorf("job event = %+v, want ok serve.job", ev)
	}
	if !strings.Contains(ev.Note, "req_id=obs-req-1") || !strings.Contains(ev.Note, "trace_id="+traceID) {
		t.Errorf("job event note = %q, want the request identity", ev.Note)
	}

	// The same identity greps out of the journal export.
	events, dropped := timeline.Default.Snapshot()
	var journal bytes.Buffer
	if err := timeline.WriteJournal(&journal, events, dropped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(journal.String(), "trace_id="+traceID) {
		t.Errorf("journal lacks the trace id:\n%s", journal.String())
	}

	// Unknown job still 404s.
	if res := getJSON(t, ts.URL+"/v1/jobs/nope/obs", nil); res.StatusCode != http.StatusNotFound {
		t.Errorf("obs for unknown job = %d, want 404", res.StatusCode)
	}
}

var updateMetricNames = flag.Bool("update-metric-names", false, "rewrite the exported metric-name golden")

// TestMetricNameTableGolden pins the full exported serve.* metric-name
// set: every name the server registers at construction, including each
// pre-warmed RED route series and the SLO gauges.  A new or renamed
// metric must update the golden — dashboards and the smoke harness key
// on these names.
func TestMetricNameTableGolden(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(time.Second)

	snap := obs.Default.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, "counter "+name)
	}
	for name := range snap.Gauges {
		names = append(names, "gauge "+name)
	}
	for name := range snap.Histograms {
		names = append(names, "histogram "+name)
	}
	var serveNames []string
	for _, n := range names {
		if strings.Contains(n, " serve.") {
			serveNames = append(serveNames, n)
		}
	}
	sort.Strings(serveNames)
	got := strings.Join(serveNames, "\n") + "\n"

	golden := filepath.Join("testdata", "metric_names.golden")
	if *updateMetricNames {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-metric-names to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exported serve.* metric names drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// nopResponseWriter is the cheapest possible sink for middleware
// benchmarks: no recorder allocations, no body retention.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) WriteHeader(int)             {}
func (w nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkServeMiddleware measures the middleware's per-request cost
// over a no-op handler, obs disabled vs enabled — the DESIGN.md §6a
// check that the observability layer is one atomic load away from free
// when off.
func BenchmarkServeMiddleware(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(time.Second)
	h := s.withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	run := func(b *testing.B) {
		req := httptest.NewRequest("GET", "/healthz", nil)
		w := nopResponseWriter{h: make(http.Header)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		obs.SetEnabled(false)
		run(b)
	})
	b.Run("enabled", func(b *testing.B) {
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		run(b)
	})
}
