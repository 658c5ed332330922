package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"kronbip/internal/spec"
)

// postLease issues one lease request and returns the response (body
// unread) for the caller to consume.
func postLease(t *testing.T, baseURL, body string) *http.Response {
	t.Helper()
	res, err := http.Post(baseURL+"/v1/leases", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/leases: %v", err)
	}
	return res
}

// TestLeaseBlocksReassemble: streaming every block of a 2×3 blocking and
// concatenating yields exactly |E_C| edges, each block matching both the
// X-Kronbip-Block-Edges header and the TrailerEdges trailer, with the
// edge set equal to a 1×1 lease of the same spec.
func TestLeaseBlocksReassemble(t *testing.T) {
	_, ts := testServer(t, Config{})
	const specBody = `"factors":["crown3","path3"],"mode":"selfloop"`

	whole := map[string]bool{}
	res := postLease(t, ts.URL, `{`+specBody+`,"row":0,"rows":1,"col":0,"cols":1}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("1x1 lease: status %d", res.StatusCode)
	}
	wholeLines := readLeaseEdges(t, res)
	for _, l := range wholeLines {
		whole[l] = true
	}

	var total int64
	got := map[string]bool{}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			res := postLease(t, ts.URL,
				fmt.Sprintf(`{%s,"row":%d,"rows":2,"col":%d,"cols":3}`, specBody, r, c))
			if res.StatusCode != http.StatusOK {
				t.Fatalf("lease (%d,%d): status %d", r, c, res.StatusCode)
			}
			want, err := strconv.ParseInt(res.Header.Get(HeaderBlockEdges), 10, 64)
			if err != nil {
				t.Fatalf("lease (%d,%d): bad %s header: %v", r, c, HeaderBlockEdges, err)
			}
			lines := readLeaseEdges(t, res)
			if int64(len(lines)) != want {
				t.Fatalf("lease (%d,%d): streamed %d edges, header promised %d", r, c, len(lines), want)
			}
			if tr := res.Trailer.Get(TrailerEdges); tr != strconv.Itoa(len(lines)) {
				t.Fatalf("lease (%d,%d): trailer edges %q, streamed %d", r, c, tr, len(lines))
			}
			if st := res.Trailer.Get(TrailerStatus); st != "complete" {
				t.Fatalf("lease (%d,%d): trailer status %q", r, c, st)
			}
			for _, l := range lines {
				if got[l] {
					t.Fatalf("lease (%d,%d): duplicate edge %s across blocks", r, c, l)
				}
				got[l] = true
			}
			total += int64(len(lines))
		}
	}
	if total != int64(len(whole)) {
		t.Fatalf("blocks total %d edges, whole product %d", total, len(whole))
	}
	for l := range whole {
		if !got[l] {
			t.Fatalf("edge %s missing from the reassembled blocks", l)
		}
	}
}

// readLeaseEdges consumes an NDJSON lease body, returning one canonical
// "v,w" string per edge (res.Trailer is populated after the read).
func readLeaseEdges(t *testing.T, res *http.Response) []string {
	t.Helper()
	defer res.Body.Close()
	dec := json.NewDecoder(res.Body)
	var out []string
	for {
		var e struct{ V, W int }
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("decode lease edge: %v", err)
		}
		out = append(out, fmt.Sprintf("%d,%d", e.V, e.W))
	}
	return out
}

func TestLeaseValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		wantCode   int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"both factor fields", `{"factor":"crown3","factors":["crown3"],"rows":1,"cols":1}`, http.StatusBadRequest},
		{"bad factor", `{"factor":"nope","rows":1,"cols":1}`, http.StatusBadRequest},
		{"bad format", `{"factor":"crown3","rows":1,"cols":1,"format":"csv"}`, http.StatusBadRequest},
		{"row out of range", `{"factor":"crown3","row":2,"rows":2,"col":0,"cols":1}`, http.StatusBadRequest},
		{"zero rows", `{"factor":"crown3","row":0,"rows":0,"col":0,"cols":1}`, http.StatusBadRequest},
		{"col out of range", `{"factor":"crown3","row":0,"rows":1,"col":5,"cols":2}`, http.StatusBadRequest},
	} {
		res := postLease(t, ts.URL, tc.body)
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.name, res.StatusCode, tc.wantCode)
		}
	}
}

// TestLeaseTooLarge: a block whose closed-form count exceeds MaxEdges is
// refused 413 before any generation.
func TestLeaseTooLarge(t *testing.T) {
	_, ts := testServer(t, Config{MaxEdges: 4})
	res := postLease(t, ts.URL, `{"factor":"crown4","row":0,"rows":1,"col":0,"cols":1}`)
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", res.StatusCode)
	}
}

// TestLeaseSaturated: with the lease semaphore full, a lease is answered
// 429 with a Retry-After of at least one second.
func TestLeaseSaturated(t *testing.T) {
	s, ts := testServer(t, Config{MaxLeases: 1})
	s.leaseSem <- struct{}{} // occupy the only slot
	defer func() { <-s.leaseSem }()
	res := postLease(t, ts.URL, `{"factor":"crown3","row":0,"rows":1,"col":0,"cols":1}`)
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", res.StatusCode)
	}
	if ra, err := strconv.Atoi(res.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", res.Header.Get("Retry-After"))
	}
}

// TestLeaseDraining: a draining server refuses leases with 503.
func TestLeaseDraining(t *testing.T) {
	s, ts := testServer(t, Config{})
	s.draining.Store(true)
	res := postLease(t, ts.URL, `{"factor":"crown3","row":0,"rows":1,"col":0,"cols":1}`)
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", res.StatusCode)
	}
}

// TestLeaseTSVFormat: the tsv rendering matches the ndjson edge list.
func TestLeaseTSVFormat(t *testing.T) {
	_, ts := testServer(t, Config{})
	res := postLease(t, ts.URL, `{"factor":"crown3","row":0,"rows":1,"col":0,"cols":2,"format":"tsv"}`)
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/tab-separated-values") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	want := res.Header.Get(HeaderBlockEdges)
	if strconv.Itoa(len(lines)) != want {
		t.Fatalf("tsv lease streamed %d lines, header promised %s", len(lines), want)
	}
	for _, l := range lines {
		if !strings.Contains(l, "\t") {
			t.Fatalf("tsv line %q has no tab", l)
		}
	}
}

// leaseFourSum drains a lease body and returns its Σ◊ trailer, failing
// unless the lease completed.
func leaseFourSum(t *testing.T, res *http.Response) int64 {
	t.Helper()
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("lease status %d", res.StatusCode)
	}
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		t.Fatal(err)
	}
	if st := res.Trailer.Get(TrailerStatus); st != "complete" {
		t.Fatalf("lease trailer status %q", st)
	}
	sum, err := strconv.ParseInt(res.Trailer.Get(TrailerFourSum), 10, 64)
	if err != nil {
		t.Fatalf("lease %s trailer: %v", TrailerFourSum, err)
	}
	return sum
}

// TestLeaseFourSumTrailer: the Σ◊ trailers of the six leases of a 2×3
// sweep add up to 4·□(C), the closed-form global count.
func TestLeaseFourSumTrailer(t *testing.T) {
	_, ts := testServer(t, Config{})
	sp := spec.Spec{Factors: []string{"crown3", "path3"}, Mode: "selfloop"}
	p, err := sp.WithDefaults().Build()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			sum += leaseFourSum(t, postLease(t, ts.URL, fmt.Sprintf(
				`{"factors":["crown3","path3"],"mode":"selfloop","row":%d,"rows":2,"col":%d,"cols":3,"format":"bin"}`, r, c)))
		}
	}
	if want := 4 * p.GlobalFourCycles(); sum != want {
		t.Fatalf("lease Σ◊ trailers sum to %d, 4·□ = %d", sum, want)
	}
}

// TestLeaseResumeFourSum: a lease resumed at offset k > 0 sends the Σ◊
// of its whole block, the same as the block's fresh lease, down to k at
// the block's end where the tail is empty.
func TestLeaseResumeFourSum(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := func(offset int64) string {
		return fmt.Sprintf(`{"factors":["crown3","path3"],"mode":"selfloop","row":1,"rows":2,"col":1,"cols":3,"format":"bin","offset":%d}`, offset)
	}
	res := postLease(t, ts.URL, body(0))
	want, err := strconv.ParseInt(res.Header.Get(HeaderBlockEdges), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	fresh := leaseFourSum(t, res)
	if fresh <= 0 {
		t.Fatalf("fresh lease Σ◊ = %d; the block needs 4-cycles for this test", fresh)
	}
	for _, k := range []int64{1, want / 2, want} {
		if got := leaseFourSum(t, postLease(t, ts.URL, body(k))); got != fresh {
			t.Fatalf("lease resumed at %d of %d sent Σ◊ %d, the fresh lease %d", k, want, got, fresh)
		}
	}
}

// TestSubmitIdempotency: resubmitting with the same idempotency key
// returns the existing job (200, same id); a different key admits a new
// job; a malformed key is a 400.
func TestSubmitIdempotency(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"factor":"crown3"}`
	post := func(key string) (*http.Response, JobStatus) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set(HeaderIdempotencyKey, key)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var st JobStatus
		_ = json.NewDecoder(res.Body).Decode(&st)
		return res, st
	}

	res1, st1 := post("dist-run-1:block-0")
	if res1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", res1.StatusCode)
	}
	res2, st2 := post("dist-run-1:block-0")
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("replayed submit: status %d, want 200", res2.StatusCode)
	}
	if st2.ID != st1.ID {
		t.Fatalf("replayed submit returned job %s, original was %s", st2.ID, st1.ID)
	}
	if loc := res2.Header.Get("Location"); loc != "/v1/jobs/"+st1.ID {
		t.Fatalf("replayed submit Location %q", loc)
	}
	res3, st3 := post("dist-run-1:block-1")
	if res3.StatusCode != http.StatusAccepted || st3.ID == st1.ID {
		t.Fatalf("different key: status %d job %s (original %s)", res3.StatusCode, st3.ID, st1.ID)
	}
	res4, _ := post(strings.Repeat("x", 129))
	if res4.StatusCode != http.StatusBadRequest {
		t.Fatalf("overlong key: status %d, want 400", res4.StatusCode)
	}
	res5, _ := post("bad key with spaces")
	if res5.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d, want 400", res5.StatusCode)
	}
}

// TestIdempotencyKeyReleasedOnEviction: once the keyed job is evicted by
// retention, the key admits a fresh job again instead of pointing at a
// dead one.
func TestIdempotencyKeyReleasedOnEviction(t *testing.T) {
	s, _ := testServer(t, Config{Retention: 1})
	sp := spec.Spec{Factors: []string{"crown3"}}.WithDefaults()
	p, err := s.cache.get(sp)
	if err != nil {
		t.Fatal(err)
	}
	j1, existing, err := s.mgr.submit(sp, p, false, "evict-key", requestInfo{})
	if err != nil || existing {
		t.Fatalf("first submit: existing=%v err=%v", existing, err)
	}
	<-j1.Done()
	// Push enough unkeyed jobs through to evict j1 (Retention=1).
	for i := 0; i < 3; i++ {
		j, _, err := s.mgr.submit(sp, p, false, "", requestInfo{})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	j2, existing, err := s.mgr.submit(sp, p, false, "evict-key", requestInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if existing || j2.id == j1.id {
		t.Fatalf("evicted key replayed old job: existing=%v id=%s (old %s)", existing, j2.id, j1.id)
	}
}
