package serve

import (
	"bytes"
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
