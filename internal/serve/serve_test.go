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
	"sync"
	"testing"
	"time"

	"kronbip/internal/audit"
	"kronbip/internal/obs"
	"kronbip/internal/spec"
)

// testServer builds a Server + httptest wrapper with fast test defaults.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
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

// holdAudits makes every audited run wait in its run hook until release
// closes or the job's context ends.
func holdAudits(s *Server, release <-chan struct{}) {
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestSaturationReturns429: an audited job holds the only walk slot
// while its checks run, so a second audited submit bounces with
// backpressure.
func TestSaturationReturns429(t *testing.T) {
	block := make(chan struct{})
	s, ts := testServer(t, Config{MaxWalks: 1})
	holdAudits(s, block)
	defer close(block)

	first, res := submitJob(t, ts.URL, `{"factor":"crown4","audit":true}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", res.StatusCode)
	}
	if first.State != "running" {
		t.Fatalf("audited job state = %q, want running while its checks are held", first.State)
	}
	_, res = submitJob(t, ts.URL, `{"factor":"crown4","audit":true}`)
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
// RetryAfter rounds to zero still sends Retry-After >= 1 when the walk
// cap is full.
func TestSaturated429NeverAdvertisesZeroWait(t *testing.T) {
	block := make(chan struct{})
	s, ts := testServer(t, Config{MaxWalks: 1, RetryAfter: time.Millisecond})
	holdAudits(s, block)
	defer close(block)
	first, res := submitJob(t, ts.URL, `{"factor":"crown4","audit":true}`)
	if res.StatusCode != http.StatusAccepted || first.State != "running" {
		t.Fatalf("first submit = %d, state %q", res.StatusCode, first.State)
	}
	_, res = submitJob(t, ts.URL, `{"factor":"crown4","audit":true}`)
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
// land without a single audit step running.
func TestOversizedChainRejectedBeforeGeneration(t *testing.T) {
	s, ts := testServer(t, Config{MaxEdges: 1000})
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		t.Error("audit started for an over-budget chain")
		return nil
	}
	// (crown4+I)⊗crown4 alone has 384 edges; each extra level multiplies
	// by ≈ 2·|E_B|, so the 4-factor chain is far past the 1000 budget.
	// Audited, so an admitted job would reach the run hook.
	_, res := submitJob(t, ts.URL, `{"factors":["crown4","crown4","crown4","crown4"],"audit":true}`)
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

// deleteJob DELETEs a job and returns the status the DELETE answers.
func deleteJob(t *testing.T, baseURL, id string) JobStatus {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, baseURL+"/v1/jobs/"+id, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatalf("decode DELETE status: %v", err)
	}
	return st
}

// TestCancelMidStream: DELETE of a done job moves it to cancelled and
// aborts its in-flight edge stream.
func TestCancelMidStream(t *testing.T) {
	_, ts := testServer(t, Config{})
	// A sizeable spec so the stream is still in flight when we cancel:
	// sf factor squared ⇒ millions of edges.
	st, res := submitJob(t, ts.URL, `{"factor":"sf100x100x2000","seed":5}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}
	if st.State != "done" {
		t.Fatalf("submitted job state = %q, want done", st.State)
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
	if got := deleteJob(t, ts.URL, st.ID).State; got != "cancelled" {
		t.Errorf("DELETE of a done job answered state %q, want cancelled", got)
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

// TestAuditedJobViolationFails: an audited job whose checks report a
// violation ends failed, with the violation in its error.
func TestAuditedJobViolationFails(t *testing.T) {
	s, ts := testServer(t, Config{})
	s.mgr.runHook = func(ctx context.Context, j *Job) error {
		return fmt.Errorf("%w: injected", audit.ErrViolation)
	}
	st, res := submitJob(t, ts.URL, `{"factor":"crown4","audit":true}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}
	final := waitState(t, ts.URL, st.ID, "failed")
	if !strings.Contains(final.Error, "invariant violation") {
		t.Errorf("failed job error = %q, want the audit violation", final.Error)
	}
}

// TestShutdownDrainsRunningJobs: shutdown waits for an audited job's
// checks to land, then refuses submissions.
func TestShutdownDrainsRunningJobs(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Config{})
	holdAudits(s, release)
	running, res := submitJob(t, ts.URL, `{"factor":"crown4","audit":true}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", res.StatusCode)
	}
	if running.State != "running" {
		t.Fatalf("audited job state = %q, want running", running.State)
	}

	// Release the hook shortly after shutdown begins, as a real
	// finishing audit would.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The running job drained to completion.
	j, ok := s.mgr.get(running.ID)
	if !ok {
		t.Fatal("running job evicted")
	}
	if st := j.Status(); st.State != "done" || st.AuditChecks == 0 {
		t.Errorf("running job after drain: state %q, %d audit checks; want done with checks", st.State, st.AuditChecks)
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
	for _, want := range []string{"serve_http_requests", "serve_jobs_running"} {
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
		// factors over spec.MaxFactorSize, rejected unbuilt: building
		// them panics in makeslice, takes 10 s of CPU or 3.9 GB
		{"GET", "/v1/truth?factor=biclique3037000500x3037000500", "", http.StatusBadRequest},
		{"GET", "/v1/truth?factor=crown400", "", http.StatusBadRequest},
		{"GET", "/v1/truth?factor=path1000000", "", http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"factor":"crown400"}`, http.StatusBadRequest},
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

// TestCancelledJobEdgesConflict: DELETE of a done job leaves it
// cancelled, and its edges answer 409 from then on.
func TestCancelledJobEdgesConflict(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if st.State != "done" {
		t.Fatalf("submitted job state = %q, want done", st.State)
	}
	if got := deleteJob(t, ts.URL, st.ID).State; got != "cancelled" {
		t.Errorf("DELETE answered state %q, want cancelled", got)
	}
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

// TestSubmitIsPriced: an unaudited job is priced, not generated — the
// submit answers 202 with the job already done and its priced count
// equal to the closed form, and neither the exec pool nor the edge
// stream moves across it.
func TestSubmitIsPriced(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	_, ts := testServer(t, Config{})
	// Build and cache the spec first, so the submit's own work is the
	// pricing alone.
	getJSON(t, ts.URL+"/v1/truth?factor=crown6&mode=selfloop&seed=1", nil)
	tasks := obs.Default.Counter("exec.pool.tasks")
	tasks0, streamed0 := tasks.Value(), mStreamEdges.Value()
	st, res := submitJob(t, ts.URL, `{"factor":"crown6","mode":"selfloop","seed":1}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", res.StatusCode)
	}
	if st.State != "done" {
		t.Errorf("submit answered state %q, want done", st.State)
	}
	if st.NumEdges <= 0 || st.EdgesStreamed != st.NumEdges {
		t.Errorf("edges_streamed = %d, num_edges = %d; want the priced count equal to the closed form", st.EdgesStreamed, st.NumEdges)
	}
	if d := tasks.Value() - tasks0; d != 0 {
		t.Errorf("exec.pool.tasks moved by %d across the submit, want 0", d)
	}
	if d := mStreamEdges.Value() - streamed0; d != 0 {
		t.Errorf("serve.stream.edges moved by %d across the submit, want 0", d)
	}
}

// TestWalkAdmission: with the only walk slot held, every request that
// walks the product — an edge stream, a lease, an audited submit —
// answers 429 with Retry-After >= 1 and binds no idempotency key, while
// an unaudited submit is still priced.
func TestWalkAdmission(t *testing.T) {
	s, ts := testServer(t, Config{MaxWalks: 1})
	s.mgr.walks <- struct{}{} // hold the only slot
	priced, res := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	if res.StatusCode != http.StatusAccepted || priced.State != "done" {
		t.Fatalf("unaudited submit under a full cap = %d, state %q; want 202 done", res.StatusCode, priced.State)
	}

	const key = "walk-admission-1"
	call := func(method, path, body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		req.Header.Set(HeaderIdempotencyKey, key)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return res
	}
	for _, p := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/jobs/" + priced.ID + "/edges", ""},
		{http.MethodPost, "/v1/leases", `{"factor":"crown4","row":0,"rows":1,"col":0,"cols":1}`},
		{http.MethodPost, "/v1/jobs", `{"factor":"crown4","audit":true}`},
	} {
		res := call(p.method, p.path, p.body)
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s %s under a full cap = %d, want 429", p.method, p.path, res.StatusCode)
		}
		if ra, err := strconv.Atoi(res.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Errorf("%s %s: Retry-After %q, want an integer >= 1", p.method, p.path, res.Header.Get("Retry-After"))
		}
	}

	// No rejection bound the key: with the slot free, the keyed audited
	// submit is a fresh admission (202), not a replay (200).
	s.mgr.walks.release()
	res = call(http.MethodPost, "/v1/jobs", `{"factor":"crown4","audit":true}`)
	var st JobStatus
	err := json.NewDecoder(res.Body).Decode(&st)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusAccepted || st.ID == priced.ID {
		t.Fatalf("keyed audited submit after release = %d (job %q, err %v), want 202 with a new job", res.StatusCode, st.ID, err)
	}
	if final := waitState(t, ts.URL, st.ID, "done"); final.AuditChecks == 0 {
		t.Error("audited job finished with no audit checks")
	}
}

// TestDeleteStopsAudit: DELETE of a running audited job stops its
// theorem.four_dual pricing within 1024 prefix pairs, so the
// walk slot the job held comes free at once and another job's edge
// stream is admitted (200), not 429.
func TestDeleteStopsAudit(t *testing.T) {
	s, ts := testServer(t, Config{MaxWalks: 1})
	started := make(chan struct{})
	s.mgr.runHook = func(context.Context, *Job) error {
		close(started)
		return nil
	}
	priced, _ := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	// 6.8·10⁹ product edges in ~3.4·10⁹ prefix pairs of one path2 edge
	// each: theorem.four_dual's pricing would run for minutes.  (Alone,
	// sf2000x2000x40000 has only ~44,000 prefix pairs and prices in
	// milliseconds, so its audit could finish before the DELETE.)
	big, res := submitJob(t, ts.URL, `{"factors":["sf2000x2000x40000","path2"],"audit":true}`)
	if res.StatusCode != http.StatusAccepted || big.State != "running" {
		t.Fatalf("audited submit = %d, state %q; want 202 running", res.StatusCode, big.State)
	}
	<-started
	time.Sleep(100 * time.Millisecond) // let the pricing get under way
	if st := deleteJob(t, ts.URL, big.ID); st.State != "cancelled" {
		t.Fatalf("DELETE of the running audited job: state %q, want cancelled", st.State)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := http.Get(ts.URL + "/v1/jobs/" + priced.ID + "/edges?format=tsv")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode == http.StatusOK {
			break
		}
		if res.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("edge stream %v after DELETE of the audit = %d, want 200", time.Since(deadline.Add(-2*time.Second)), res.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := waitState(t, ts.URL, big.ID, "cancelled"); st.AuditChecks != 0 {
		t.Errorf("deleted audit booked %d checks, want none", st.AuditChecks)
	}
}

// TestDeleteStopsStreamAudit: DELETE of a job whose audited stream has
// sent its last edge stops the stream's audit before its ◊ walk ends:
// the trailers read aborted with the partial tallies, and the walk slot
// the stream held comes free for the next stream (200, not 429).
func TestDeleteStopsStreamAudit(t *testing.T) {
	_, ts := testServer(t, Config{MaxWalks: 1})
	reached, release := make(chan struct{}), make(chan struct{})
	streamFinalizing = func(ctx context.Context) {
		close(reached)
		<-release
		select { // the DELETE cancels the stream through an AfterFunc
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
		}
	}
	t.Cleanup(func() { streamFinalizing = nil })
	audited, _ := submitJob(t, ts.URL, `{"factor":"crown6"}`)
	next, _ := submitJob(t, ts.URL, `{"factor":"crown4"}`)

	res, err := http.Get(ts.URL + "/v1/jobs/" + audited.ID + "/edges?format=tsv&audit=1")
	if err != nil {
		t.Fatal(err)
	}
	body := make(chan error, 1)
	go func() { // drain concurrently: the handler must not block on the socket
		_, err := io.Copy(io.Discard, res.Body)
		res.Body.Close()
		body <- err
	}()
	<-reached
	if st := deleteJob(t, ts.URL, audited.ID); st.State != "cancelled" {
		t.Fatalf("DELETE: state %q, want cancelled", st.State)
	}
	close(release)
	if err := <-body; err != nil {
		t.Fatal(err)
	}
	if got := res.Trailer.Get(TrailerStatus); got != "aborted" {
		t.Errorf("trailer status %q (audit checks %q), want aborted", got, res.Trailer.Get(TrailerAuditChecks))
	}
	for _, name := range []string{TrailerAuditChecks, TrailerAuditViolations} {
		if _, err := strconv.ParseInt(res.Trailer.Get(name), 10, 64); err != nil {
			t.Errorf("trailer %s = %q, want the partial tally", name, res.Trailer.Get(name))
		}
	}
	res, err = http.Get(ts.URL + "/v1/jobs/" + next.ID + "/edges?format=tsv")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("next stream after the aborted audit = %d, want 200", res.StatusCode)
	}
}

// TestWalkCapConcurrent drives the walk cap from many goroutines at
// once — edge streams, leases, and audited submits cancelled as soon as
// they are admitted — and then requires every slot back: each request
// is admitted or answered 429, and no path leaks its slot.
func TestWalkCapConcurrent(t *testing.T) {
	s, ts := testServer(t, Config{MaxWalks: 2})
	priced, _ := submitJob(t, ts.URL, `{"factor":"crown4"}`)
	do := func(method, path, body string) (int, []byte) {
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer res.Body.Close()
		b, _ := io.ReadAll(res.Body)
		return res.StatusCode, b
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var code int
				var body []byte
				switch (g + i) % 3 {
				case 0:
					code, _ = do(http.MethodGet, "/v1/jobs/"+priced.ID+"/edges?format=bin", "")
				case 1:
					code, _ = do(http.MethodPost, "/v1/leases", `{"factor":"crown4","row":0,"rows":2,"col":0,"cols":1}`)
				default:
					code, body = do(http.MethodPost, "/v1/jobs", `{"factor":"crown4","audit":true}`)
					var st JobStatus
					if code == http.StatusAccepted && json.Unmarshal(body, &st) == nil {
						do(http.MethodDelete, "/v1/jobs/"+st.ID, "")
					}
				}
				if code != http.StatusOK && code != http.StatusAccepted && code != http.StatusTooManyRequests {
					t.Errorf("goroutine %d op %d: status %d", g, i, code)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := len(s.mgr.walks); n != 0 {
		t.Fatalf("%d walk slots still held after every request and audit ended", n)
	}
}
