package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"kronbip/internal/spec"
)

// FuzzSubmitBody drives POST /v1/jobs with raw body bytes and an
// X-Kronbip-Idempotency-Key value, and GET /v1/truth with raw factor,
// mode and seed strings, against one in-process server with a small
// edge budget.  A submit answers 200, 202, 400, 413 or 429, and a truth
// query 200 or 400 — never a 5xx, which is also what a recovered panic
// reads as.  A 202's num_edges, like a truth 200's, is the NumEdges of
// the spec built locally from the same request.
func FuzzSubmitBody(f *testing.F) {
	const maxEdges = 1 << 16
	s := New(Config{MaxEdges: maxEdges})
	f.Cleanup(func() { _ = s.Shutdown(5 * time.Second) })
	h := s.Handler()

	for _, seed := range []struct {
		body, key, factor, mode, seed string
	}{
		{`{"factor":"crown4"}`, "", "crown4", "", ""},
		{`{"factors":["crown4","path3"],"mode":"selfloop","seed":7}`, "retry-1", "sf48x96x240", "selfloop", "7"},
		{`{"factor":"crown4","audit":true}`, "retry-1", "crown6", "relaxed", "-1"},
		{`{"factor":"unicode"}`, "", "unicode", "selfloop", ""},
		{`{"factor":"crown400"}`, "bad key", "crown400", "", ""},
		{`{"factor":"crown4","factors":["path3"]}`, strings.Repeat("k", 129), "path3", "strict", "x"},
		{`{"seed":1e400}`, "", "", "", "9223372036854775808"},
		{`{"factors":[]}`, "", "biclique256x256", "", ""},
		{``, "", "star65536", "", ""},
		{`not json`, "", "nope", "nope", "nope"},
	} {
		f.Add([]byte(seed.body), seed.key, seed.factor, seed.mode, seed.seed)
	}
	f.Fuzz(func(t *testing.T, body []byte, key, factor, mode, seed string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		if key != "" {
			req.Header.Set(HeaderIdempotencyKey, key)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted:
			// A 202 admitted the body's spec: resolve it the way the
			// submit contract states it.
			var sr submitRequest
			if len(body) > 0 {
				if err := json.Unmarshal(body, &sr); err != nil {
					t.Fatalf("%q: 202 for a body that does not parse: %v", body, err)
				}
			}
			sp := spec.Spec{Factors: sr.Factors, Mode: sr.Mode, Seed: spec.DefaultSeed}
			if sr.Factor != "" {
				sp.Factors = []string{sr.Factor}
			}
			if sr.Seed != nil {
				sp.Seed = *sr.Seed
			}
			checkNumEdges(t, "submit "+string(body), sp, rec.Body.Bytes())
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("submit %q (key %q): status %d: %s", body, key, rec.Code, rec.Body.Bytes())
		}

		q := url.Values{"factor": {factor}, "mode": {mode}, "seed": {seed}}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/truth?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			sp, err := specFromQuery(q)
			if err != nil {
				t.Fatalf("truth %s: 200 for a query that does not parse: %v", q.Encode(), err)
			}
			checkNumEdges(t, "truth "+q.Encode(), sp, rec.Body.Bytes())
		case http.StatusBadRequest:
		default:
			t.Fatalf("truth %s: status %d: %s", q.Encode(), rec.Code, rec.Body.Bytes())
		}
	})
}

// checkNumEdges fails t unless the JSON answer's num_edges is the
// NumEdges of sp built locally.
func checkNumEdges(t *testing.T, what string, sp spec.Spec, answer []byte) {
	t.Helper()
	var got struct {
		NumEdges int64 `json:"num_edges"`
	}
	if err := json.Unmarshal(answer, &got); err != nil {
		t.Fatalf("%s: answer does not parse: %v: %s", what, err, answer)
	}
	p, err := sp.WithDefaults().Build()
	if err != nil {
		t.Fatalf("%s: answered 2xx for a spec that does not build: %v", what, err)
	}
	if got.NumEdges != p.NumEdges() {
		t.Fatalf("%s: num_edges %d, the spec builds %d", what, got.NumEdges, p.NumEdges())
	}
}
