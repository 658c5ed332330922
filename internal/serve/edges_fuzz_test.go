package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
)

// textReference renders edges the way the text streams did before the
// decimal kernel, with strconv, and returns each line's start offset
// (plus the end): lines [lo, hi) are body[at[lo]:at[hi]].
func textReference(edges []exec.Edge, ndjson bool) (body []byte, at []int) {
	at = make([]int, 0, len(edges)+1)
	for _, e := range edges {
		at = append(at, len(body))
		if ndjson {
			body = append(body, `{"v":`...)
			body = strconv.AppendInt(body, int64(e.V), 10)
			body = append(body, `,"w":`...)
			body = strconv.AppendInt(body, int64(e.W), 10)
			body = append(body, '}', '\n')
		} else {
			body = strconv.AppendInt(body, int64(e.V), 10)
			body = append(body, '\t')
			body = strconv.AppendInt(body, int64(e.W), 10)
			body = append(body, '\n')
		}
	}
	return body, append(at, len(body))
}

// FuzzEdgesQuery drives GET /v1/jobs/{id}/edges of one done job of
// wireTestProduct with arbitrary format, offset, limit and audit
// strings.  Every answer is 200, 400 or 416.  A 200 body holds exactly
// edges [lo, hi) of the canonical order — the strconv rendering for
// text, frames that wire.Decode reads from lo for bin — with hi−lo in
// the edge-count trailer and, on an audited stream, no violation.
func FuzzEdgesQuery(f *testing.F) {
	s := New(Config{})
	f.Cleanup(func() { _ = s.Shutdown(5 * time.Second) })
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"factors":["biclique8x8","path4"],"mode":"selfloop"}`)))
	var st JobStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || rec.Code != http.StatusAccepted || st.State != "done" {
		f.Fatalf("submit: %d, state %q, err %v", rec.Code, st.State, err)
	}
	edges := productEdges(wireTestProduct(f))
	total := int64(len(edges))
	tsv, tsvAt := textReference(edges, false)
	ndjson, ndjsonAt := textReference(edges, true)

	for _, seed := range [][4]string{
		{"", "", "", ""},
		{"tsv", "5000", "20000", ""},
		{"ndjson", "", "", "1"},
		{"bin", "4095", "8193", ""},
		{"bin", "", "", "true"},
		{"tsv", strconv.FormatInt(total, 10), "", ""},
		{"ndjson", strconv.FormatInt(total+1, 10), "", ""},
		{"tsv", "1", "9223372036854775807", ""},
		{"csv", "-1", "x", "1"},
		{"bin", "0", "00", "yes"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, format, offset, limit, audit string) {
		q := url.Values{"format": {format}, "offset": {offset}, "limit": {limit}, "audit": {audit}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/edges?"+q.Encode(), nil))
		res := rec.Result()
		switch res.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestedRangeNotSatisfiable:
			return
		default:
			t.Fatalf("%s: status %d: %s", q.Encode(), res.StatusCode, rec.Body.Bytes())
		}

		// A 200 means every parameter parsed: resolve the window the way
		// the range contract states it.
		lo, hi := int64(0), total
		if offset != "" {
			lo, _ = strconv.ParseInt(offset, 10, 64)
		}
		if limit != "" {
			if n, _ := strconv.ParseInt(limit, 10, 64); n < hi-lo {
				hi = lo + n
			}
		}
		if got := res.Trailer.Get(TrailerEdges); got != strconv.FormatInt(hi-lo, 10) {
			t.Fatalf("%s: trailer edges %q, want %d", q.Encode(), got, hi-lo)
		}
		if st := res.Trailer.Get(TrailerStatus); st != "complete" {
			t.Fatalf("%s: trailer status %q, want complete", q.Encode(), st)
		}
		if audit == "1" || audit == "true" {
			if v := res.Trailer.Get(TrailerAuditViolations); v != "0" {
				t.Fatalf("%s: %s audit violations", q.Encode(), v)
			}
		}
		body := rec.Body.Bytes()
		switch format {
		case "bin":
			var got []exec.Edge
			n, next, trailing, err := wire.Decode(body, lo, func(frame []exec.Edge) {
				got = append(got, frame...)
			})
			if err != nil || trailing != 0 || n != hi-lo || next != hi {
				t.Fatalf("%s: decode: %d edges, next %d, %d trailing bytes, err %v", q.Encode(), n, next, trailing, err)
			}
			if !slices.Equal(got, edges[lo:hi]) {
				t.Fatalf("%s: decoded edges differ from the canonical order", q.Encode())
			}
		case "tsv":
			if !bytes.Equal(body, tsv[tsvAt[lo]:tsvAt[hi]]) {
				t.Fatalf("%s: body differs from the strconv rendering of [%d, %d)", q.Encode(), lo, hi)
			}
		default:
			if !bytes.Equal(body, ndjson[ndjsonAt[lo]:ndjsonAt[hi]]) {
				t.Fatalf("%s: body differs from the strconv rendering of [%d, %d)", q.Encode(), lo, hi)
			}
		}
	})
}

// FuzzLeaseBody drives POST /v1/leases with the body built from the
// biclique8x8⊗path4 selfloop spec at fuzzed block coordinates, offset
// and format, or with the raw bytes instead when there are any.  Every
// answer is 200, 400, 413 or 416.  A 200 body wire-decodes from the
// offset to exactly edges [offset, want) of the block's
// EachEdgeBlockRangeBatchContext walk, with want − offset in the
// edge-count trailer and, in the Σ◊ trailer, the sum of EdgeFourCyclesAt
// over the whole block's plain walk.
func FuzzLeaseBody(f *testing.F) {
	total := wireTestProduct(f).NumEdges()
	// The budget admits the whole product as one block, so a raw body
	// naming a bigger block answers 413 instead of a long walk.
	s := New(Config{MaxEdges: total})
	f.Cleanup(func() { _ = s.Shutdown(5 * time.Second) })
	h := s.Handler()

	type block struct {
		row, rows, col, cols int
		offset               int64
		format               string
	}
	for _, b := range []block{
		{0, 1, 0, 1, 0, "bin"},
		{0, 2, 1, 3, 8192, "bin"},
		{1, 2, 2, 3, 4095, ""},
		{0, 1, 0, 1, total, "bin"},
		{0, 1, 0, 1, total + 1, "bin"},
		{0, 1, 0, 1, -1, "bin"},
		{2, 2, 0, 1, 0, "bin"},
		{0, 0, 0, 1, 0, "bin"},
		{0, 1, 0, 1, 0, "tsv"},
		{3, 1 << 40, 5, 1 << 20, 0, "bin"},
	} {
		f.Add(b.row, b.rows, b.col, b.cols, b.offset, b.format, []byte(nil))
	}
	for _, raw := range []string{
		`{"factor":"crown4","row":0,"rows":1,"col":0,"cols":1}`,
		`{"factors":["biclique8x8","path4"],"mode":"selfloop","seed":7,"row":1,"rows":3,"col":1,"cols":2,"offset":4097}`,
		`{"factor":"crown4","factors":["crown4"],"rows":1,"cols":1}`,
		`{"factor":"crown400","rows":1,"cols":1}`,
		`{"factor":"unicode","mode":"selfloop","rows":1,"cols":1}`,
		`{"rows":1e400}`,
		`not json`,
	} {
		f.Add(0, 0, 0, 0, int64(0), "", []byte(raw))
	}
	f.Fuzz(func(t *testing.T, row, rows, col, cols int, offset int64, format string, raw []byte) {
		body := raw
		if len(body) == 0 {
			body, _ = json.Marshal(map[string]any{
				"factors": []string{"biclique8x8", "path4"}, "mode": "selfloop",
				"row": row, "rows": rows, "col": col, "cols": cols, "offset": offset, "format": format,
			})
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/leases", bytes.NewReader(body)))
		res := rec.Result()
		switch res.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusRequestedRangeNotSatisfiable:
			return
		default:
			t.Fatalf("%s: status %d: %s", body, res.StatusCode, rec.Body.Bytes())
		}

		// A 200 means the body parsed: resolve its spec and block the
		// way the lease contract states them.
		var req leaseRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s: 200 for a body that does not parse: %v", body, err)
		}
		sp := spec.Spec{Factors: req.Factors, Mode: req.Mode, Seed: spec.DefaultSeed}
		if req.Factor != "" {
			sp.Factors = []string{req.Factor}
		}
		if req.Seed != nil {
			sp.Seed = *req.Seed
		}
		p, err := sp.WithDefaults().Build()
		if err != nil {
			t.Fatalf("%s: 200 for a spec that does not build: %v", body, err)
		}
		want, err := p.BlockEdgeCount(req.Row, req.Rows, req.Col, req.Cols)
		if err != nil {
			t.Fatalf("%s: 200 for a bad block: %v", body, err)
		}
		ctx := context.Background()
		var edges []exec.Edge
		if err := p.EachEdgeBlockRangeBatchContext(ctx, req.Row, req.Rows, req.Col, req.Cols, req.Offset, want, func(b []exec.Edge) bool {
			edges = append(edges, b...)
			return true
		}); err != nil {
			t.Fatalf("%s: block walk: %v", body, err)
		}
		// The trailer's Σ◊ covers the whole block, resumed or not: the
		// plain block walk priced edge by edge with the point query.
		var fourSum int64
		if err := p.EachEdgeBlockBatchContext(ctx, req.Row, req.Rows, req.Col, req.Cols, func(b []exec.Edge) bool {
			for _, e := range b {
				sq, err := p.EdgeFourCyclesAt(e.V, e.W)
				if err != nil {
					t.Fatalf("%s: EdgeFourCyclesAt(%d,%d): %v", body, e.V, e.W, err)
				}
				fourSum += sq
			}
			return true
		}); err != nil {
			t.Fatalf("%s: block walk: %v", body, err)
		}

		if st := res.Trailer.Get(TrailerStatus); st != "complete" {
			t.Fatalf("%s: trailer status %q, want complete", body, st)
		}
		if got := res.Trailer.Get(TrailerEdges); got != strconv.FormatInt(want-req.Offset, 10) {
			t.Fatalf("%s: trailer edges %q, want %d", body, got, want-req.Offset)
		}
		if got := res.Trailer.Get(wire.TrailerFourSum); got != strconv.FormatInt(fourSum, 10) {
			t.Fatalf("%s: Σ◊ trailer %q, want %d", body, got, fourSum)
		}
		var got []exec.Edge
		n, next, trailing, err := wire.Decode(rec.Body.Bytes(), req.Offset, func(frame []exec.Edge) {
			got = append(got, frame...)
		})
		if err != nil || trailing != 0 || n != want-req.Offset || next != want {
			t.Fatalf("%s: decode: %d edges, next %d, %d trailing bytes, err %v", body, n, next, trailing, err)
		}
		if !slices.Equal(got, edges) {
			t.Fatalf("%s: decoded edges differ from the block walk of [%d, %d)", body, req.Offset, want)
		}
	})
}
