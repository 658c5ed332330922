package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
)

// wireTestProduct builds the standard wire-format test product: big
// enough that at least one term spans several wire frames (so the
// 4096-edge grid cuts are exercised, not just the term cuts) and that
// the streaming sinks hit their mid-stream flush cadence.
func wireTestProduct(t testing.TB) *core.Product {
	t.Helper()
	p, err := spec.Spec{Factors: []string{"biclique8x8", "path4"}, Mode: "selfloop"}.
		WithDefaults().Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() <= 2*streamFlushEdges {
		t.Fatalf("wire test product too small: %d edges (want > %d)", p.NumEdges(), 2*streamFlushEdges)
	}
	return p
}

// productEdges collects the canonical order as exec.Edge values.
func productEdges(p *core.Product) []exec.Edge {
	out := make([]exec.Edge, 0, p.NumEdges())
	p.EachEdge(func(v, w int) bool {
		out = append(out, exec.Edge{V: v, W: w})
		return true
	})
	return out
}

// encodeWire renders edges[lo:hi) of the canonical order as a job
// stream does — the run walk of [lo, hi) framed by a binSink opened at
// stream offset lo with the product's hard cuts — and fails unless the
// bytes decode to exactly those edges.
func encodeWire(t *testing.T, p *core.Product, edges []exec.Edge, lo, hi int64) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	sink := newBinSink(rec, p.TermEdgeStarts(), lo, hi)
	defer sink.release()
	if err := walkWindow(context.Background(), p, 0, 1, 0, 1, lo, hi, sink, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.count() != hi-lo {
		t.Fatalf("encoder counted %d edges, walked %d", sink.count(), hi-lo)
	}
	var got []exec.Edge
	if _, _, trailing, err := wire.Decode(rec.Body.Bytes(), lo, func(f []exec.Edge) { got = append(got, f...) }); err != nil || trailing != 0 || !slices.Equal(got, edges[lo:hi]) {
		t.Fatalf("[%d,%d): %d bytes decode to %d edges, %d trailing, %v; not the canonical range", lo, hi, rec.Body.Len(), len(got), trailing, err)
	}
	return rec.Body.Bytes()
}

// TestWireRoundTrip: encoding the full canonical stream and decoding it
// back reproduces every edge in order, with no trailing bytes.
func TestWireRoundTrip(t *testing.T) {
	p := wireTestProduct(t)
	edges := productEdges(p)
	payload := encodeWire(t, p, edges, 0, p.NumEdges())

	var got []exec.Edge
	n, next, trailing, err := DecodeWire(payload, 0, func(v, w int) {
		got = append(got, exec.Edge{V: v, W: w})
	})
	if err != nil {
		t.Fatal(err)
	}
	if trailing != 0 {
		t.Fatalf("%d trailing bytes on a complete payload", trailing)
	}
	if n != p.NumEdges() || next != p.NumEdges() {
		t.Fatalf("decoded %d edges, next=%d, want %d", n, next, p.NumEdges())
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d decoded as %v, want %v", i, got[i], edges[i])
		}
	}
	// Size sanity: the point of the format is beating text rendering.
	if int64(len(payload)) > 8*p.NumEdges() {
		t.Fatalf("wire payload %d bytes for %d edges — deltas are not compressing", len(payload), p.NumEdges())
	}
}

// TestWireBatchMatchesPerEdge: feeding the encoder one-edge runs and
// runs cut at arbitrary points produces the bytes of the walk's own
// runs — framing depends only on the stream offset, not on delivery
// granularity.
func TestWireBatchMatchesPerEdge(t *testing.T) {
	p := wireTestProduct(t)
	const n = 10000
	var runs []core.Run
	if err := p.EachEdgeBlockRangeRunContext(context.Background(), 0, 1, 0, 1, 0, n, nil, func(r core.Run) bool {
		runs = append(runs, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	encode := func(cut func(i, lo, hi int) int) []byte {
		rec := httptest.NewRecorder()
		sink := newBinSink(rec, p.TermEdgeStarts(), 0, n)
		defer sink.release()
		for i, r := range runs {
			for hi := r.Hi; r.Lo < hi; r.Lo = r.Hi {
				r.Hi = cut(i, r.Lo, hi)
				if err := sink.Run(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return rec.Body.Bytes()
	}
	whole := encode(func(_, _, hi int) int { return hi })
	if !bytes.Equal(whole, encode(func(_, lo, _ int) int { return lo + 1 })) {
		t.Fatal("one-edge runs differ from whole runs")
	}
	ragged := encode(func(i, lo, hi int) int { return min(hi, lo+1+(lo*2879+i*7)%701) })
	if !bytes.Equal(whole, ragged) {
		t.Fatal("ragged runs differ from whole runs")
	}
}

// alignedCuts returns every frame-aligned offset of the stream: the term
// hard cuts plus the WireFrameEdges grid between them — exactly the
// offsets at which a resumed stream is byte-identical.
func alignedCuts(p *core.Product) []int64 {
	var ks []int64
	cuts := p.TermEdgeStarts()
	prev := int64(0)
	for _, c := range cuts {
		for g := prev; g < c; g += WireFrameEdges {
			ks = append(ks, g)
		}
		ks = append(ks, c)
		prev = c
	}
	return ks
}

// TestWireResumeByteIdentity: for every frame-aligned offset k —
// term boundaries and the 4096-edge grid between them — encoding [0,k)
// and [k,N) separately concatenates to the exact uninterrupted byte
// stream.  This is the contract distgen's banked-frame resume rides.
func TestWireResumeByteIdentity(t *testing.T) {
	p := wireTestProduct(t)
	edges := productEdges(p)
	n := p.NumEdges()
	full := encodeWire(t, p, edges, 0, n)

	ks := alignedCuts(p)
	gridCuts := 0
	termSet := map[int64]bool{}
	for _, c := range p.TermEdgeStarts() {
		termSet[c] = true
	}
	for _, k := range ks {
		if !termSet[k] && k != 0 {
			gridCuts++
		}
	}
	if gridCuts == 0 {
		t.Fatalf("no mid-term frame-grid cuts in %v — product too small to exercise the grid", ks)
	}

	for _, k := range ks {
		head := encodeWire(t, p, edges, 0, k)
		tail := encodeWire(t, p, edges, k, n)
		if !bytes.Equal(append(head, tail...), full) {
			t.Fatalf("resume at %d: head+tail differs from the uninterrupted stream", k)
		}
	}
}

// TestDecodeWireTruncation: cutting the payload at any byte yields the
// complete-frame prefix without error; the salvaged prefix re-decodes
// cleanly and its edges are exactly the canonical prefix.
func TestDecodeWireTruncation(t *testing.T) {
	p := wireTestProduct(t)
	edges := productEdges(p)
	payload := encodeWire(t, p, edges, 0, 9000) // a few frames

	for cut := 0; cut <= len(payload); cut += 997 {
		n, next, trailing, err := DecodeWire(payload[:cut], 0, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if next != n {
			t.Fatalf("cut %d: next=%d, edges=%d (stream starts at 0)", cut, next, n)
		}
		keep := payload[:cut-trailing]
		var got []exec.Edge
		kn, _, ktrail, err := DecodeWire(keep, 0, func(v, w int) {
			got = append(got, exec.Edge{V: v, W: w})
		})
		if err != nil || ktrail != 0 || kn != n {
			t.Fatalf("cut %d: salvaged prefix re-decode: n=%d trailing=%d err=%v (want n=%d)", cut, kn, ktrail, err, n)
		}
		for i := range got {
			if got[i] != edges[i] {
				t.Fatalf("cut %d: salvaged edge %d is %v, want %v", cut, i, got[i], edges[i])
			}
		}
	}
}

// TestDecodeWireMalformed: framing violations — zero/oversized counts, a
// contiguity break, a wrong starting offset — are hard errors, not
// quietly tolerated truncation.
func TestDecodeWireMalformed(t *testing.T) {
	p := wireTestProduct(t)
	edges := productEdges(p)
	payload := encodeWire(t, p, edges, 0, 9000)

	frame := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			var tmp [10]byte
			n := 0
			for x := v; ; n++ {
				if x < 0x80 {
					tmp[n] = byte(x)
					n++
					break
				}
				tmp[n] = byte(x) | 0x80
				x >>= 7
			}
			b = append(b, tmp[:n]...)
		}
		return b
	}
	// Eleven bytes run a varint past 64 bits.
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	cases := map[string][]byte{
		"zero count":           frame(0, 0, 1, 2),
		"oversized count":      frame(WireFrameEdges+1, 0, 1, 2),
		"wrong start":          frame(1, 5, 1, 2), // expected offset 0
		"11-byte count varint": overlong,
		"11-byte start varint": append(frame(1), overlong...),
		"11-byte delta varint": append(append(frame(2, 0, 1, 2), overlong...), 0),
		"negative vertex":      frame(2, 0, 1, 2, 3, 0), // Δv = -2 (zigzag 3) takes v from 1 to -1
	}
	for name, b := range cases {
		if _, _, _, err := DecodeWire(b, 0, nil); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Contiguity break across real frames: measure the first frame, then
	// skip it — the second frame's recorded start no longer matches a
	// stream that claims to begin at edge 0.
	_, firstLen := parseFrame(t, payload)
	if firstLen <= 0 || firstLen >= len(payload) {
		t.Fatalf("first frame length %d of %d", firstLen, len(payload))
	}
	if _, _, _, err := DecodeWire(payload[firstLen:], 0, nil); err == nil {
		t.Error("skipped first frame: contiguity break not detected")
	}
}

// TestWireBytesPinned pins the bin bytes themselves, which no round trip
// can see: the length and CRC-64 (ECMA) of four bodies the server
// sends.  A change to the frame layout, the frame grid or the encoder
// fails here even while encoder and decoder still agree.  An audited
// stream sends the unaudited stream's bytes.
func TestWireBytesPinned(t *testing.T) {
	_, ts := testServer(t, Config{})
	const specBody = `"factors":["biclique8x8","path4"],"mode":"selfloop"`
	st, _ := submitJob(t, ts.URL, `{`+specBody+`}`)
	waitState(t, ts.URL, st.ID, "done")
	edges := ts.URL + "/v1/jobs/" + st.ID + "/edges?format=bin"

	full, _ := fetchBody(t, edges)
	ranged, _ := fetchBody(t, edges+"&offset=5000&limit=20000")
	audited, _ := fetchBody(t, edges+"&audit=1")
	// Block (0,1) of a 2×3 grid holds 18520 edges in one term up to
	// 16384; 8192 is a grid boundary inside it.
	res := postLease(t, ts.URL, `{`+specBody+`,"row":0,"rows":2,"col":1,"cols":3,"format":"bin","offset":8192}`)
	resumed, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("resumed lease: status %d, err %v", res.StatusCode, err)
	}

	tab := crc64.MakeTable(crc64.ECMA)
	for _, c := range []struct {
		name string
		body []byte
		size int
		sum  uint64
	}{
		{"full stream", full, 112281, 0x0a8b5b1ec140a686},
		{"offset=5000&limit=20000", ranged, 40061, 0xa4f22a09ead88cc0},
		{"lease (0,1) of 2x3 resumed at 8192", resumed, 20707, 0xddb404bc33056c0e},
		{"audit=1", audited, 112281, 0x0a8b5b1ec140a686},
	} {
		if sum := crc64.Checksum(c.body, tab); len(c.body) != c.size || sum != c.sum {
			t.Errorf("%s: %d bytes, CRC-64 %#016x; pinned %d bytes, %#016x", c.name, len(c.body), sum, c.size, c.sum)
		}
	}
}

// TestTextBytesPinned pins the text renderings the way
// TestWireBytesPinned pins bin: the length and CRC-64 (ECMA) of the tsv
// and ndjson job-stream bodies of wireTestProduct, whole, ranged and
// audited (the whole body's bytes).  Every text sink renders through
// exec.AppendTSV and exec.AppendNDJSON, so a change to either, or to
// the sink's chunking, fails here.
func TestTextBytesPinned(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := submitJob(t, ts.URL, `{"factors":["biclique8x8","path4"],"mode":"selfloop"}`)
	waitState(t, ts.URL, st.ID, "done")
	edges := ts.URL + "/v1/jobs/" + st.ID + "/edges?format="

	tab := crc64.MakeTable(crc64.ECMA)
	for _, c := range []struct {
		query string
		size  int
		sum   uint64
	}{
		{"tsv", 439095, 0xbfcacbd5351fadf2},
		{"tsv&offset=5000&limit=20000", 156432, 0xa74a5dd1d927410a},
		{"ndjson", 999735, 0x4e81c39fd300fd53},
		{"ndjson&offset=5000&limit=20000", 356432, 0x9f9e83555aa1c394},
		{"tsv&audit=1", 439095, 0xbfcacbd5351fadf2},
		{"ndjson&audit=1", 999735, 0x4e81c39fd300fd53},
	} {
		body, _ := fetchBody(t, edges+c.query)
		if sum := crc64.Checksum(body, tab); len(body) != c.size || sum != c.sum {
			t.Errorf("format=%s: %d bytes, CRC-64 %#016x; pinned %d bytes, %#016x", c.query, len(body), sum, c.size, c.sum)
		}
	}
}

// --- Trailer contract -------------------------------------------------

// abortWriter fails every body write after `allow` bytes, simulating a
// consumer that disappears mid-stream.  Header/trailer writes (which go
// through Header()) are unaffected, so the handler's epilogue is
// observable.
type abortWriter struct {
	*httptest.ResponseRecorder
	allow int
}

func (a *abortWriter) Write(b []byte) (int, error) {
	if a.allow <= 0 {
		return 0, fmt.Errorf("injected consumer failure")
	}
	if len(b) > a.allow {
		b = b[:a.allow]
	}
	a.allow -= len(b)
	return a.ResponseRecorder.Write(b)
}

// trailerNames splits a Trailer header announcement into canonical keys.
func trailerNames(announce string) []string {
	var out []string
	for _, f := range strings.Split(announce, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, http.CanonicalHeaderKey(f))
		}
	}
	return out
}

// TestTrailerContract is the announced-equals-sent matrix: for both
// streaming endpoints, every format (a lease has only bin), complete and
// aborted, audited and not, the Trailer header announces exactly the
// trailers that arrive — no phantom audit trailers on unaudited streams
// (the old bug), no announced-but-missing trailers on aborted ones, and
// the block's Σ◊ on every lease.
func TestTrailerContract(t *testing.T) {
	total := wireTestProduct(t).NumEdges()
	s, ts := testServer(t, Config{})
	const specBody = `"factors":["biclique8x8","path4"],"mode":"selfloop"`
	st, res := submitJob(t, ts.URL, `{`+specBody+`}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", res.StatusCode)
	}
	waitState(t, ts.URL, st.ID, "done")

	type cell struct {
		name    string
		method  string
		target  string
		body    string
		abort   bool
		audited bool
	}
	var cells []cell
	for _, format := range []string{"ndjson", "tsv", "bin"} {
		for _, abort := range []bool{false, true} {
			for _, audited := range []bool{false, true} {
				q := "format=" + format
				if audited {
					q += "&audit=1"
				}
				cells = append(cells, cell{
					name:    fmt.Sprintf("edges/%s/abort=%v/audit=%v", format, abort, audited),
					method:  http.MethodGet,
					target:  "/v1/jobs/" + st.ID + "/edges?" + q,
					abort:   abort,
					audited: audited,
				})
			}
			if format == "bin" {
				cells = append(cells, cell{
					name:   fmt.Sprintf("leases/%s/abort=%v", format, abort),
					method: http.MethodPost,
					target: "/v1/leases",
					body:   fmt.Sprintf(`{%s,"row":0,"rows":1,"col":0,"cols":1,"format":%q}`, specBody, format),
					abort:  abort,
				})
			}
		}
	}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			var body io.Reader
			if c.body != "" {
				body = strings.NewReader(c.body)
			}
			req := httptest.NewRequest(c.method, c.target, body)
			if c.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			rec := httptest.NewRecorder()
			var w http.ResponseWriter = rec
			if c.abort {
				w = &abortWriter{ResponseRecorder: rec, allow: 64}
			}
			s.Handler().ServeHTTP(w, req)
			resp := rec.Result()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}

			announced := trailerNames(resp.Header.Get("Trailer"))
			want := map[string]bool{
				http.CanonicalHeaderKey(TrailerStatus): true,
				http.CanonicalHeaderKey(TrailerEdges):  true,
			}
			if c.audited {
				want[http.CanonicalHeaderKey(TrailerAuditChecks)] = true
				want[http.CanonicalHeaderKey(TrailerAuditViolations)] = true
			}
			if c.method == http.MethodPost { // a lease
				want[http.CanonicalHeaderKey(wire.TrailerFourSum)] = true
			}
			if len(announced) != len(want) {
				t.Fatalf("announced %v, want exactly %v", announced, want)
			}
			for _, name := range announced {
				if !want[name] {
					t.Fatalf("announced unexpected trailer %s", name)
				}
				if resp.Trailer.Get(name) == "" {
					t.Fatalf("trailer %s announced but never sent (sent: %v)", name, resp.Trailer)
				}
			}

			status := resp.Trailer.Get(TrailerStatus)
			sent, err := strconv.ParseInt(resp.Trailer.Get(TrailerEdges), 10, 64)
			if err != nil {
				t.Fatalf("trailer edges %q: %v", resp.Trailer.Get(TrailerEdges), err)
			}
			if c.abort {
				if status != "aborted" {
					t.Fatalf("trailer status %q, want aborted", status)
				}
			} else {
				if status != "complete" {
					t.Fatalf("trailer status %q, want complete", status)
				}
				if sent != total {
					t.Fatalf("complete stream sent %d edges, closed form says %d", sent, total)
				}
			}
		})
	}
}

// --- HTTP range streaming --------------------------------------------

// TestEdgesRangeRequests: ?offset/?limit validation — 416 past the end
// (with the closed-form total in the response header), 400 on malformed
// values and on audit+range, and an exact empty stream at offset=total.
func TestEdgesRangeRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := submitJob(t, ts.URL, `{"factors":["crown3","path3"],"mode":"selfloop"}`)
	final := waitState(t, ts.URL, st.ID, "done")
	base := ts.URL + "/v1/jobs/" + st.ID + "/edges"

	res, err := http.Get(base + fmt.Sprintf("?offset=%d", final.NumEdges+1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("offset past end: status %d, want 416", res.StatusCode)
	}
	if got := res.Header.Get(HeaderStreamTotal); got != strconv.FormatInt(final.NumEdges, 10) {
		t.Fatalf("416 %s header %q, want the closed-form total %d", HeaderStreamTotal, got, final.NumEdges)
	}

	for _, q := range []string{"?offset=-1", "?offset=x", "?limit=-2", "?offset=1&audit=1"} {
		res, err := http.Get(base + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, res.StatusCode)
		}
	}

	res, err = http.Get(base + fmt.Sprintf("?format=tsv&offset=%d", final.NumEdges))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("offset=total: status %d, %d body bytes (want empty 200)", res.StatusCode, len(body))
	}
	if got := res.Trailer.Get(TrailerEdges); got != "0" {
		t.Fatalf("offset=total trailer edges %q", got)
	}

	// A limit past the stream end clamps to the end (offset+limit must
	// not wrap): the same edges [5, total) as an unlimited request.
	for _, format := range []string{"tsv", "bin"} {
		want, _ := fetchBody(t, base+"?format="+format+"&offset=5")
		got, tr := fetchBody(t, base+fmt.Sprintf("?format=%s&offset=5&limit=%d", format, int64(math.MaxInt64)))
		if st := tr.Get(TrailerStatus); st != "complete" {
			t.Fatalf("%s huge limit: trailer status %q, want complete", format, st)
		}
		if n := tr.Get(TrailerEdges); n != strconv.FormatInt(final.NumEdges-5, 10) {
			t.Fatalf("%s huge limit: trailer edges %s, want %d", format, n, final.NumEdges-5)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s huge limit: %d body bytes differ from the unlimited tail's %d", format, len(got), len(want))
		}
	}
}

// fetchBody GETs a URL and returns the body bytes plus trailers.
func fetchBody(t *testing.T, url string) ([]byte, http.Header) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(res.Body)
		t.Fatalf("GET %s: status %d: %s", url, res.StatusCode, msg)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, res.Trailer
}

// TestEdgesRangeConcatenation: [0,k) + [k,N) over HTTP reassembles the
// uninterrupted stream — byte-identical for text at any k, and for bin
// at frame-aligned k (term cuts and the 4096-edge grid).
func TestEdgesRangeConcatenation(t *testing.T) {
	p := wireTestProduct(t)
	_, ts := testServer(t, Config{})
	st, _ := submitJob(t, ts.URL, `{"factors":["biclique8x8","path4"],"mode":"selfloop"}`)
	final := waitState(t, ts.URL, st.ID, "done")
	if final.NumEdges != p.NumEdges() {
		t.Fatalf("job total %d, local build %d", final.NumEdges, p.NumEdges())
	}
	base := ts.URL + "/v1/jobs/" + st.ID + "/edges"
	n := p.NumEdges()

	for _, format := range []string{"tsv", "bin"} {
		full, tr := fetchBody(t, base+"?format="+format)
		if st := tr.Get(TrailerStatus); st != "complete" {
			t.Fatalf("%s full stream trailer status %q", format, st)
		}
		var ks []int64
		if format == "bin" {
			ks = alignedCuts(p)
			ks = ks[:len(ks)-1] // drop N itself; covered by the empty-tail case below
		} else {
			ks = []int64{1, n / 3, n / 2, n - 1}
		}
		ks = append(ks, n)
		for _, k := range ks {
			head, _ := fetchBody(t, base+fmt.Sprintf("?format=%s&limit=%d", format, k))
			tail, _ := fetchBody(t, base+fmt.Sprintf("?format=%s&offset=%d", format, k))
			if !bytes.Equal(append(head, tail...), full) {
				t.Fatalf("%s split at %d: concatenation differs from the full stream", format, k)
			}
		}
	}
}

// TestLeaseOffsetResume: a lease resumed at a frame-aligned block-local
// offset returns exactly the bytes the uninterrupted lease carries from
// that offset — prefix + resumed tail is byte-identical — at every
// interior frame cut of every block of a 2×3 grid, and an offset past
// the block answers 416.
func TestLeaseOffsetResume(t *testing.T) {
	p := wireTestProduct(t)
	_, ts := testServer(t, Config{})
	const specBody = `"factors":["biclique8x8","path4"],"mode":"selfloop"`
	const rows, cols = 2, 3
	leaseBody := func(r, c int, offset int64) string {
		return fmt.Sprintf(`{%s,"row":%d,"rows":%d,"col":%d,"cols":%d,"format":"bin","offset":%d}`,
			specBody, r, rows, c, cols, offset)
	}
	fetch := func(body string) ([]byte, *http.Response) {
		res := postLease(t, ts.URL, body)
		defer res.Body.Close()
		payload, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return payload, res
	}

	resumed := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want, err := p.BlockEdgeCount(r, rows, c, cols)
			if err != nil {
				t.Fatal(err)
			}
			bcuts, err := p.BlockTermEdgeStarts(r, rows, c, cols)
			if err != nil {
				t.Fatal(err)
			}
			full, res := fetch(leaseBody(r, c, 0))
			if res.StatusCode != http.StatusOK || res.Trailer.Get(TrailerStatus) != "complete" {
				t.Fatalf("lease (%d,%d): status %d trailer %q", r, c, res.StatusCode, res.Trailer.Get(TrailerStatus))
			}
			if got := res.Header.Get("Content-Type"); got != ContentTypeBin {
				t.Fatalf("lease (%d,%d): content type %q", r, c, got)
			}
			n, _, trailing, err := DecodeWire(full, 0, nil)
			if err != nil || trailing != 0 || n != want {
				t.Fatalf("lease (%d,%d) decode: n=%d trailing=%d err=%v (closed form %d)", r, c, n, trailing, err, want)
			}

			// Resume at every interior block-local frame cut: the term
			// cuts plus the grid between them.
			for k := int64(0); k < want; {
				if _, k = wire.FrameBounds(bcuts, k); k == want {
					break
				}
				// The byte boundary of offset k in the full payload,
				// found by walking frame headers.
				head := splitWireAt(t, full, k)
				tail, res := fetch(leaseBody(r, c, k))
				if res.StatusCode != http.StatusOK {
					t.Fatalf("lease (%d,%d) resumed at %d: status %d", r, c, k, res.StatusCode)
				}
				if got := res.Header.Get(HeaderStreamOffset); got != strconv.FormatInt(k, 10) {
					t.Fatalf("lease (%d,%d) resumed at %d: %s header %q", r, c, k, HeaderStreamOffset, got)
				}
				if !bytes.Equal(append(head, tail...), full) {
					t.Fatalf("lease (%d,%d) resumed at %d: prefix+tail differs from the uninterrupted lease", r, c, k)
				}
				resumed++
			}

			// Past-the-end offset: 416 with the block's closed-form count.
			_, res = fetch(leaseBody(r, c, want+1))
			if res.StatusCode != http.StatusRequestedRangeNotSatisfiable {
				t.Fatalf("lease (%d,%d) offset past block end: status %d, want 416", r, c, res.StatusCode)
			}
			if got := res.Header.Get(HeaderBlockEdges); got != strconv.FormatInt(want, 10) {
				t.Fatalf("lease (%d,%d) 416 %s header %q, want %d", r, c, HeaderBlockEdges, got, want)
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no block of the grid has an interior frame cut: nothing was resumed")
	}
}

// splitWireAt returns the byte prefix of payload carrying exactly the
// frames before edge offset k (k must be frame-aligned), walking the
// frame headers directly — an independent cross-check of the layout
// DecodeWire implements.
func splitWireAt(t *testing.T, payload []byte, k int64) []byte {
	t.Helper()
	rest := payload
	var off int64
	for off < k {
		count, length := parseFrame(t, rest)
		rest = rest[length:]
		off += count
	}
	if off != k {
		t.Fatalf("split at %d landed on %d — offset is not frame-aligned", k, off)
	}
	return payload[:len(payload)-len(rest)]
}

// parseFrame reads one frame (header + body) off the front of b,
// returning its edge count and total byte length.
func parseFrame(t *testing.T, b []byte) (count int64, length int) {
	t.Helper()
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		t.Fatal("bad frame: count varint")
	}
	length = n
	if _, n = binary.Uvarint(b[length:]); n <= 0 {
		t.Fatal("bad frame: start varint")
	}
	length += n
	for i := uint64(0); i < 2*cnt; i++ {
		if i < 2 {
			_, n = binary.Uvarint(b[length:])
		} else {
			_, n = binary.Varint(b[length:])
		}
		if n <= 0 {
			t.Fatal("bad frame: edge varint")
		}
		length += n
	}
	return int64(cnt), length
}

// TestEdgesBinParallelSpans checks that the endpoint's bin byte stream
// is identical to a binSink fed the canonical order — full, and from
// an unaligned offset — and that an aborted bin stream still honors
// the trailer contract.  (The name predates the serial stream; it once
// forced the parallel span encoder.)
func TestEdgesBinParallelSpans(t *testing.T) {
	p := wireTestProduct(t)
	edges := productEdges(p)
	n := p.NumEdges()

	s, ts := testServer(t, Config{})
	st, _ := submitJob(t, ts.URL, `{"factors":["biclique8x8","path4"],"mode":"selfloop"}`)
	waitState(t, ts.URL, st.ID, "done")
	base := ts.URL + "/v1/jobs/" + st.ID + "/edges"

	got, tr := fetchBody(t, base+"?format=bin")
	if status := tr.Get(TrailerStatus); status != "complete" {
		t.Fatalf("trailer status %q", status)
	}
	if sent := tr.Get(TrailerEdges); sent != strconv.FormatInt(n, 10) {
		t.Fatalf("trailer edges %q, want %d", sent, n)
	}
	if want := encodeWire(t, p, edges, 0, n); !bytes.Equal(got, want) {
		t.Fatalf("stream differs from serial encoding (%d vs %d bytes)", len(got), len(want))
	}

	// An unaligned resume offset: the first frame is short, later frame
	// boundaries snap back onto the grid.
	lo := int64(5000)
	got, _ = fetchBody(t, base+fmt.Sprintf("?format=bin&offset=%d", lo))
	if want := encodeWire(t, p, edges, lo, n); !bytes.Equal(got, want) {
		t.Fatalf("ranged stream from %d differs from serial encoding", lo)
	}

	// Aborting mid-stream must still deliver the announced trailers.
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/edges?format=bin", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(&abortWriter{ResponseRecorder: rec, allow: 64}, req)
	resp := rec.Result()
	if status := resp.Trailer.Get(TrailerStatus); status != "aborted" {
		t.Fatalf("aborted stream trailer status %q", status)
	}
	if resp.Trailer.Get(TrailerEdges) == "" {
		t.Fatal("aborted stream sent no edge-count trailer")
	}
}

// cancelWriter cancels its request's context on its first body write
// and never fails one: a stream stopped by a DELETE, a drain or a
// departed client, not by a write error.
type cancelWriter struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c *cancelWriter) Write(b []byte) (int, error) {
	c.cancel()
	return c.ResponseRecorder.Write(b)
}

// TestBinCancelMidFrame: a bin job stream and a lease whose context is
// cancelled at their first write stop mid-frame, with status aborted,
// and their bodies decode with wire.Decode to exactly the
// X-Kronbip-Edges count with no trailing byte, those edges being the
// canonical order from the stream's offset.  The walk looks at its
// context every exec.BatchLen edges from the offset, off the frame grid,
// so the stream stops inside a frame and Flush must rewrite that
// frame's count.
func TestBinCancelMidFrame(t *testing.T) {
	p := wireTestProduct(t)
	edges := productEdges(p)
	cuts := p.TermEdgeStarts()
	s, _ := testServer(t, Config{})
	const specBody = `"factors":["biclique8x8","path4"],"mode":"selfloop"`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{`+specBody+`}`)))
	var st JobStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", rec.Code, err)
	}
	const lo = 5000
	for _, c := range []struct{ name, method, target, body string }{
		{"job", http.MethodGet, fmt.Sprintf("/v1/jobs/%s/edges?format=bin&offset=%d", st.ID, lo), ""},
		{"lease", http.MethodPost, "/v1/leases", fmt.Sprintf(`{%s,"row":0,"rows":1,"col":0,"cols":1,"offset":%d}`, specBody, lo)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)).WithContext(ctx)
			s.Handler().ServeHTTP(&cancelWriter{ResponseRecorder: rec, cancel: cancel}, req)
			res := rec.Result()
			if res.StatusCode != http.StatusOK || res.Trailer.Get(TrailerStatus) != "aborted" {
				t.Fatalf("status %d, trailer status %q; want 200, aborted", res.StatusCode, res.Trailer.Get(TrailerStatus))
			}
			sent, err := strconv.ParseInt(res.Trailer.Get(TrailerEdges), 10, 64)
			if err != nil || sent == 0 || lo+sent >= p.NumEdges() {
				t.Fatalf("trailer edges %q: the cancellation did not cut the stream", res.Trailer.Get(TrailerEdges))
			}
			if _, end := wire.FrameBounds(cuts, lo+sent-1); end == lo+sent {
				t.Fatalf("stopped at %d, a frame boundary: the short-frame rewrite went untested", lo+sent)
			}
			var got []exec.Edge
			n, next, trailing, err := wire.Decode(rec.Body.Bytes(), lo, func(f []exec.Edge) { got = append(got, f...) })
			if err != nil || trailing != 0 || n != sent || next != lo+sent {
				t.Fatalf("decode: %d edges to %d, %d trailing bytes, %v; trailer says %d", n, next, trailing, err, sent)
			}
			if !slices.Equal(got, edges[lo:lo+sent]) {
				t.Fatal("decoded edges are not the canonical order from the offset")
			}
		})
	}
}
