package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"kronbip/internal/spec"
)

// testServer builds a Server + httptest wrapper with fast test defaults.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = time.Minute
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(5 * time.Second)
	})
	return s, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	if v != nil {
		if err := json.NewDecoder(res.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return res
}

func submitJob(t *testing.T, baseURL, body string) (JobStatus, *http.Response) {
	t.Helper()
	res, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer res.Body.Close()
	var st JobStatus
	if res.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return st, res
}

func waitState(t *testing.T, baseURL, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, baseURL+"/v1/jobs/"+id, &st)
		if st.State == want {
			return st
		}
		if st.State == "failed" && want != "failed" {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return JobStatus{}
}

// TestHappyPath is the full walkthrough: submit → poll → stream → truth,
// with the streamed edge count matching the closed form.
func TestHappyPath(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, res := submitJob(t, ts.URL, `{"factor":"crown4","mode":"selfloop","seed":1,"audit":true}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", res.StatusCode)
	}
	if res.Header.Get("Location") != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q", res.Header.Get("Location"))
	}
	if res.Header.Get("Server") == "" {
		t.Error("no Server header")
	}

	final := waitState(t, ts.URL, st.ID, "done")
	if final.EdgesStreamed != final.NumEdges {
		t.Errorf("job streamed %d edges, closed form says %d", final.EdgesStreamed, final.NumEdges)
	}
	if final.AuditChecks == 0 || final.AuditViolations != 0 {
		t.Errorf("audit checks=%d violations=%d", final.AuditChecks, final.AuditViolations)
	}

	// Stream the edge list as TSV and count lines.
	res2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/edges?format=tsv&audit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	lines := 0
	sc := bufio.NewScanner(res2.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if !strings.Contains(sc.Text(), "\t") {
			t.Fatalf("bad TSV line %q", sc.Text())
		}
		lines++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if int64(lines) != final.NumEdges {
		t.Errorf("streamed %d lines, want %d", lines, final.NumEdges)
	}
	if got := res2.Trailer.Get(TrailerStatus); got != "complete" {
		t.Errorf("trailer status = %q", got)
	}
	if got := res2.Trailer.Get(TrailerEdges); got != fmt.Sprint(final.NumEdges) {
		t.Errorf("trailer edges = %q, want %d", got, final.NumEdges)
	}
	if got := res2.Trailer.Get(TrailerAuditViolations); got != "0" {
		t.Errorf("trailer audit violations = %q", got)
	}

	// /v1/truth must agree with the job's closed form.
	var truth struct {
		NumEdges         int64 `json:"num_edges"`
		GlobalFourCycles int64 `json:"global_four_cycles"`
	}
	getJSON(t, ts.URL+"/v1/truth?factor=crown4&mode=selfloop&seed=1", &truth)
	if truth.NumEdges != final.NumEdges {
		t.Errorf("truth num_edges=%d, job says %d", truth.NumEdges, final.NumEdges)
	}
	if truth.GlobalFourCycles != final.GlobalFourCycles {
		t.Errorf("truth four_cycles=%d, job says %d", truth.GlobalFourCycles, final.GlobalFourCycles)
	}
}

func TestNDJSONStreamAndVertexTruth(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, res := submitJob(t, ts.URL, `{"factor":"biclique3x5","seed":3}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", res.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "done")
	res2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if ct := res2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var n int64
	var ev, ew int
	sc := bufio.NewScanner(res2.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e struct{ V, W *int }
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.V == nil || e.W == nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if n == 0 {
			ev, ew = *e.V, *e.W
		}
		n++
	}
	if n != st.NumEdges {
		t.Errorf("streamed %d NDJSON edges, want %d", n, st.NumEdges)
	}

	// Point-query truth for a vertex and for a real edge off the stream.
	var truth struct {
		Vertex *struct {
			Degree     int64 `json:"degree"`
			FourCycles int64 `json:"four_cycles"`
		} `json:"vertex"`
		Edge *struct {
			FourCycles int64 `json:"four_cycles"`
		} `json:"edge"`
	}
	url := fmt.Sprintf("%s/v1/truth?factor=biclique3x5&seed=3&vertex=%d&edge=%d,%d", ts.URL, ev, ev, ew)
	getJSON(t, url, &truth)
	if truth.Vertex == nil || truth.Vertex.Degree <= 0 {
		t.Errorf("vertex truth missing or degenerate: %+v", truth.Vertex)
	}
	if truth.Edge == nil {
		t.Error("edge truth missing for a streamed edge")
	}
}

func TestSaturationReturns429(t *testing.T) {
	block := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(block)

	// First job occupies the single worker, second fills the queue.
	first, res := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", res.StatusCode)
	}
	waitState(t, ts.URL, first.ID, "running")
	if _, res = submitJob(t, ts.URL, `{"factor":"crown4"}`); res.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", res.StatusCode)
	}
	// Third must bounce with backpressure.
	_, res = submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestRetryAfterSeconds pins the header arithmetic: round up to whole
// seconds, and never render 0 — a zero RetryAfter config (the zero
// value before defaults, or an explicit "no wait") must still tell
// clients to back off for at least a second.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{10 * time.Second, 10},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestSaturated429NeverAdvertisesZeroWait: end to end, a server whose
// RetryAfter rounds to zero still sends Retry-After >= 1.
func TestSaturated429NeverAdvertisesZeroWait(t *testing.T) {
	block := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: time.Millisecond})
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(block)
	first, res := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", res.StatusCode)
	}
	waitState(t, ts.URL, first.ID, "running")
	if _, res = submitJob(t, ts.URL, `{"factor":"crown4"}`); res.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", res.StatusCode)
	}
	_, res = submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", res.StatusCode)
	}
	secs, err := strconv.Atoi(res.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", res.Header.Get("Retry-After"))
	}
}

func TestOversizedSpecReturns413(t *testing.T) {
	_, ts := testServer(t, Config{MaxEdges: 100})
	_, res := submitJob(t, ts.URL, `{"factor":"unicode"}`) // |E_C| ≈ 4.8M >> 100
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want 413", res.StatusCode)
	}
	// The admission estimate must not have queued anything.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected job was retained: %+v", list.Jobs)
	}
}

// TestOversizedChainRejectedBeforeGeneration: admission control prices a
// k = 4 chain from the closed-form |E_C| recursion alone — the 413 must
// land without a single generation step running.
func TestOversizedChainRejectedBeforeGeneration(t *testing.T) {
	s, ts := testServer(t, Config{MaxEdges: 1000})
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		t.Error("generation started for an over-budget chain")
		return nil
	}
	// (crown4+I)⊗crown4 alone has 384 edges; each extra level multiplies
	// by ≈ 2·|E_B|, so the 4-factor chain is far past the 1000 budget.
	_, res := submitJob(t, ts.URL, `{"factors":["crown4","crown4","crown4","crown4"]}`)
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chain submit = %d, want 413", res.StatusCode)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected chain job was retained: %+v", list.Jobs)
	}
}

// TestChainJobHappyPath: a chained spec end to end through the service —
// submit with "factors", audit online, stream, and cross-check against
// the /v1/truth chained query (repeated factor= params).
func TestChainJobHappyPath(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, res := submitJob(t, ts.URL, `{"factors":["crown4","path3"],"mode":"selfloop","seed":1,"audit":true}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("chain submit = %d", res.StatusCode)
	}
	final := waitState(t, ts.URL, st.ID, "done")
	if final.EdgesStreamed != final.NumEdges {
		t.Errorf("chain job streamed %d edges, closed form says %d", final.EdgesStreamed, final.NumEdges)
	}
	if final.AuditChecks == 0 || final.AuditViolations != 0 {
		t.Errorf("chain audit checks=%d violations=%d", final.AuditChecks, final.AuditViolations)
	}
	var truth struct {
		NumEdges int64 `json:"num_edges"`
		Vertex   *struct {
			Digits []int `json:"digits"`
		} `json:"vertex"`
	}
	getJSON(t, ts.URL+"/v1/truth?factor=crown4&factor=path3&mode=selfloop&seed=1&vertex=7", &truth)
	if truth.NumEdges != final.NumEdges {
		t.Errorf("chained truth num_edges=%d, job says %d", truth.NumEdges, final.NumEdges)
	}
	if truth.Vertex == nil || len(truth.Vertex.Digits) != 3 {
		t.Errorf("vertex truth digits = %+v, want a 3-digit tuple", truth.Vertex)
	}
}

func TestFactorAndFactorsMutuallyExclusive(t *testing.T) {
	_, ts := testServer(t, Config{})
	_, res := submitJob(t, ts.URL, `{"factor":"crown4","factors":["path3"]}`)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with both factor and factors = %d, want 400", res.StatusCode)
	}
}

// TestCacheDistinguishesGroupings: chained Kronecker products do not
// reassociate — (A∘B₁)∘B₂ built eagerly via a product(…) composite is a
// different graph than the flat chain over the same leaves, and the
// spec-keyed cache must keep both as distinct entries.
func TestCacheDistinguishesGroupings(t *testing.T) {
	s, _ := testServer(t, Config{})
	flat := spec.Spec{Factors: []string{"crown4", "path2", "path3"}, Mode: "selfloop", Seed: 1}
	grouped := spec.Spec{Factors: []string{"product(crown4,path2)", "path3"}, Mode: "selfloop", Seed: 1}
	pf, err := s.cache.get(flat)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := s.cache.get(grouped)
	if err != nil {
		t.Fatal(err)
	}
	if s.cache.len() != 2 {
		t.Fatalf("cache holds %d entries for flat vs grouped chain, want 2", s.cache.len())
	}
	if pf == pg {
		t.Fatal("cache returned one product for two groupings")
	}
	if pf.N() == pg.N() && pf.NumEdges() == pg.NumEdges() {
		t.Errorf("flat (%d,%d) and grouped (%d,%d) chains look identical; grouping must matter",
			pf.N(), pf.NumEdges(), pg.N(), pg.NumEdges())
	}
	// A repeat fetch of either is a hit, not a rebuild.
	if p2, err := s.cache.get(flat); err != nil || p2 != pf {
		t.Errorf("flat-chain refetch missed the cache (err=%v)", err)
	}
}

func TestCancelMidStream(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Config{})
	// Hold the job in its run hook so it is still running when the
	// DELETE lands — batched generation finishes real jobs faster than
	// the request round-trips, which would leave the job "done" (and
	// only the stream aborted) instead of exercising the
	// cancelled-while-running transition.
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(release)
	// A sizeable spec so the stream is still in flight when we cancel:
	// sf factor squared ⇒ millions of edges.
	st, res := submitJob(t, ts.URL, `{"factor":"sf100x100x2000","seed":5}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}
	res2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/edges?format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	// Read a first chunk, then cancel the job mid-stream.
	buf := make([]byte, 4096)
	if _, err := io.ReadFull(res2.Body, buf); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if res3, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		res3.Body.Close()
	}
	// The stream must terminate without delivering the full edge set.
	n, _ := io.Copy(io.Discard, res2.Body)
	total := int64(len(buf)) + n
	if got := res2.Trailer.Get(TrailerStatus); got != "aborted" {
		// The race is legal: the stream may have finished before the
		// DELETE landed.  Only a completed stream may claim "complete".
		if got != "complete" {
			t.Errorf("trailer status = %q", got)
		}
		t.Skipf("stream finished before cancellation (%d bytes)", total)
	}
	waitState(t, ts.URL, st.ID, "cancelled")
}

func TestShutdownDrainsRunningJobs(t *testing.T) {
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
	running, res := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}
	waitState(t, ts.URL, running.ID, "running")
	queued, res := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}

	// Release the hook shortly after shutdown begins, as a real
	// finishing job would.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The running job drained to completion; the queued one was
	// cancelled without running.
	if st := running.ID; true {
		j, ok := s.mgr.get(st)
		if !ok {
			t.Fatal("running job evicted")
		}
		if got := j.Status().State; got != "done" {
			t.Errorf("running job state after drain = %q, want done", got)
		}
	}
	if j, ok := s.mgr.get(queued.ID); ok {
		if got := j.Status().State; got != "cancelled" {
			t.Errorf("queued job state after drain = %q, want cancelled", got)
		}
	}

	// Post-shutdown submissions are refused.
	_, res = submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit = %d, want 503", res.StatusCode)
	}
}

func TestHealthzAndVersion(t *testing.T) {
	_, ts := testServer(t, Config{})
	var hz struct {
		Status  string `json:"status"`
		Version struct {
			Version string `json:"Version"`
			Go      string `json:"Go"`
		} `json:"version"`
	}
	res := getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Errorf("status = %q", hz.Status)
	}
	if hz.Version.Version == "" || !strings.HasPrefix(hz.Version.Go, "go") {
		t.Errorf("version payload = %+v", hz.Version)
	}
	if got := res.Header.Get("Server"); !strings.HasPrefix(got, "kronbip/") {
		t.Errorf("Server header = %q", got)
	}
}

func TestMetricsExposed(t *testing.T) {
	_, ts := testServer(t, Config{})
	getJSON(t, ts.URL+"/healthz", nil)
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	for _, want := range []string{"serve_http_requests", "serve_jobs_queue_depth"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/truth?factor=wat", "", http.StatusBadRequest},
		{"GET", "/v1/truth?factor=crown4&vertex=99999999", "", http.StatusBadRequest},
		{"GET", "/v1/truth?factor=crown4&edge=zz", "", http.StatusBadRequest},
		// a crown4 root with eight crown4 levels: 2^27 vertices, but 2.8e19 4-cycles
		{"GET", "/v1/truth?mode=selfloop" + strings.Repeat("&factor=crown4", 8), "", http.StatusBadRequest},
		{"GET", "/v1/stats?seed=abc", "", http.StatusBadRequest},
		{"GET", "/v1/jobs/nope", "", http.StatusNotFound},
		{"DELETE", "/v1/jobs/nope", "", http.StatusNotFound},
		{"GET", "/v1/jobs/nope/edges", "", http.StatusNotFound},
		{"POST", "/v1/jobs", `{"factor":`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"mode":"bogus"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		res.Body.Close()
		if res.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, res.StatusCode, tc.want)
		}
	}
}

func TestCancelledJobEdgesConflict(t *testing.T) {
	block := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1})
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer close(block)
	st, _ := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	waitState(t, ts.URL, st.ID, "running")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	waitState(t, ts.URL, st.ID, "cancelled")
	res2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusConflict {
		t.Errorf("edges of cancelled job = %d, want 409", res2.StatusCode)
	}
}
