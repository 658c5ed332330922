package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/spec"
)

// FuzzSubmitBody drives POST /v1/jobs with raw body bytes and an
// X-Kronbip-Idempotency-Key value, GET /v1/truth with raw factor, mode,
// seed, vertex and edge strings, and GET /v1/stats with the same factor,
// mode and seed, against one in-process server with a small edge
// budget.  A submit answers 200, 202, 400, 413 or 429, and a truth or
// stats query 200 or 400 — never a 5xx, which is also what a recovered
// panic reads as.  A 202's num_edges, like a truth or stats 200's, is
// the NumEdges of the spec built locally from the same request, and a
// truth 200's vertex and edge four_cycles are that product's
// VertexFourCyclesAt and EdgeFourCyclesAt.
func FuzzSubmitBody(f *testing.F) {
	const maxEdges = 1 << 16
	s := New(Config{MaxEdges: maxEdges})
	f.Cleanup(func() { _ = s.Shutdown(5 * time.Second) })
	h := s.Handler()

	for _, seed := range []struct {
		body, key, factor, mode, seed, vertex, edge string
	}{
		{`{"factor":"crown4"}`, "", "crown4", "", "", "3", "0,9"},
		{`{"factors":["crown4","path3"],"mode":"selfloop","seed":7}`, "retry-1", "sf48x96x240", "selfloop", "7", "0", "0,1"},
		{`{"factor":"crown4","audit":true}`, "retry-1", "crown6", "relaxed", "-1", "143", "0,13"},
		{`{"factor":"unicode"}`, "", "unicode", "selfloop", "", "-1", "1,"},
		{`{"factor":"crown400"}`, "bad key", "crown400", "", "", "x", "0,13"},
		{`{"factor":"crown4","factors":["path3"]}`, strings.Repeat("k", 129), "path3", "strict", "x", "", ""},
		{`{"seed":1e400}`, "", "", "", "9223372036854775808", "9223372036854775808", "0,-1"},
		{`{"factors":[]}`, "", "biclique256x256", "", "", "65535", "0,65535"},
		{``, "", "star65536", "", "", "0", "0,0"},
		{`not json`, "", "nope", "nope", "nope", "nope", "nope"},
	} {
		f.Add([]byte(seed.body), seed.key, seed.factor, seed.mode, seed.seed, seed.vertex, seed.edge)
	}
	f.Fuzz(func(t *testing.T, body []byte, key, factor, mode, seed, vertex, edge string) {
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
			what := "submit " + string(body)
			var got struct {
				NumEdges int64 `json:"num_edges"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s: answer does not parse: %v: %s", what, err, rec.Body.Bytes())
			}
			p, err := sp.WithDefaults().Build()
			if err != nil {
				t.Fatalf("%s: 202 for a spec that does not build: %v", what, err)
			}
			checkNumEdges(t, what, p, got.NumEdges)
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("submit %q (key %q): status %d: %s", body, key, rec.Code, rec.Body.Bytes())
		}

		// The truth and stats queries name one spec: build it locally at
		// most once per input.
		q := url.Values{"factor": {factor}, "mode": {mode}, "seed": {seed}}
		var local *core.Product
		built := func(what string) *core.Product {
			if local == nil {
				sp, err := specFromQuery(q)
				if err != nil {
					t.Fatalf("%s: 200 for a query that does not parse: %v", what, err)
				}
				if local, err = sp.WithDefaults().Build(); err != nil {
					t.Fatalf("%s: 200 for a spec that does not build: %v", what, err)
				}
			}
			return local
		}

		tq := url.Values{"factor": {factor}, "mode": {mode}, "seed": {seed}, "vertex": {vertex}, "edge": {edge}}
		what := "truth " + tq.Encode()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/truth?"+tq.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			var got truthResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s: answer does not parse: %v: %s", what, err, rec.Body.Bytes())
			}
			p := built(what)
			checkNumEdges(t, what, p, got.NumEdges)
			// A 200 parsed vertex and edge the way the handler does.
			if vertex != "" {
				v, _ := strconv.Atoi(vertex)
				if got.Vertex == nil || got.Vertex.Vertex != v || got.Vertex.FourCycles != p.VertexFourCyclesAt(v) {
					t.Fatalf("%s: vertex %+v; VertexFourCyclesAt(%d) %d", what, got.Vertex, v, p.VertexFourCyclesAt(v))
				}
			}
			if edge != "" {
				sv, sw, _ := strings.Cut(edge, ",")
				v, _ := strconv.Atoi(sv)
				w, _ := strconv.Atoi(sw)
				sq, err := p.EdgeFourCyclesAt(v, w)
				if got.Edge == nil || got.Edge.V != v || got.Edge.W != w || err != nil || sq != got.Edge.FourCycles {
					t.Fatalf("%s: edge %+v; EdgeFourCyclesAt(%d,%d) %d, %v", what, got.Edge, v, w, sq, err)
				}
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.Bytes())
		}

		what = "stats " + q.Encode()
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			var got statsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s: answer does not parse: %v: %s", what, err, rec.Body.Bytes())
			}
			checkNumEdges(t, what, built(what), got.NumEdges)
		case http.StatusBadRequest:
		default:
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.Bytes())
		}
	})
}

// checkNumEdges fails t unless an answer's num_edges is the NumEdges of
// its spec's product p, built locally.
func checkNumEdges(t *testing.T, what string, p *core.Product, numEdges int64) {
	t.Helper()
	if numEdges != p.NumEdges() {
		t.Fatalf("%s: num_edges %d, the spec builds %d", what, numEdges, p.NumEdges())
	}
}
