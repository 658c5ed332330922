package distgen

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
)

// --- Retry-After parsing (satellite: coordinator backoff fix) ---------

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		h    string
		want time.Duration
	}{
		{"delta seconds", "7", 7 * time.Second},
		{"zero clamps up", "0", time.Second},
		{"negative clamps up", "-3", time.Second},
		{"http date", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"past date clamps up", now.Add(-time.Minute).Format(http.TimeFormat), time.Second},
		{"garbage", "soon-ish", time.Second},
		{"empty", "", time.Second},
	}
	for _, tc := range cases {
		got := parseRetryAfter(tc.h, now)
		// HTTP dates have one-second resolution; allow that much slack.
		if got < tc.want-time.Second || got > tc.want+time.Second {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want ~%v", tc.name, tc.h, got, tc.want)
		}
	}
}

// TestBackoffFloorVsHeader: the park duration is the max of the floor
// and the header, never the floor overriding a longer server ask.
func TestBackoffFloorVsHeader(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header string
		floor  time.Duration
		min    time.Duration // park must be at least this much
	}{
		{"header wins over small floor", "2", 10 * time.Millisecond, 1900 * time.Millisecond},
		{"floor wins over short header", "1", 3 * time.Second, 2900 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", tc.header)
				w.WriteHeader(http.StatusTooManyRequests)
			}))
			t.Cleanup(ts.Close)
			p, err := testSpec.WithDefaults().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts, err := Options{Workers: []string{ts.URL}, backoffFloor: tc.floor}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			c, err := newCoordinator(p, testSpec.WithDefaults(), &bytes.Buffer{}, 1, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			before := time.Now()
			_, err = c.lease(context.Background(), c.workers[0], c.blocks[0], nil, 0)
			var be *backoffError
			if !asBackoff(err, &be) {
				t.Fatalf("lease err = %v, want backoffError", err)
			}
			if park := be.until.Sub(before); park < tc.min {
				t.Fatalf("parked %v, want at least %v (header %q, floor %v)",
					park, tc.min, tc.header, tc.floor)
			}
		})
	}
}

func asBackoff(err error, be **backoffError) bool {
	for err != nil {
		if b, ok := err.(*backoffError); ok {
			*be = b
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// --- Binary wire format end to end ------------------------------------

// decodeBinSet decodes a single-block bin payload into its edge set.
func decodeBinSet(t *testing.T, buf []byte) (map[string]bool, int64) {
	t.Helper()
	set := map[string]bool{}
	n, _, trailing, err := serve.DecodeWire(buf, 0, func(v, w int) {
		set[fmt.Sprintf("%d\t%d", v, w)] = true
	})
	if err != nil || trailing != 0 {
		t.Fatalf("decode merged bin stream: n=%d trailing=%d err=%v", n, trailing, err)
	}
	return set, n
}

// TestRunBinFormat: a 1x1-grid bin run produces a stream DecodeWire
// fully accepts, carrying exactly the local edge set; the online audit
// runs over the decoded edges; and a multi-block bin run still verifies
// per block, matches the closed-form total, and is deterministic.
func TestRunBinFormat(t *testing.T) {
	urls := newFleet(t, 2, nil)
	want, total := localEdgeSet(t, testSpec)

	// 1x1: the merged output is one block-local stream, decodable whole.
	var one bytes.Buffer
	res, err := Run(context.Background(), testSpec, &one, Options{
		Workers: urls, Rows: 1, Cols: 1, Format: "bin", Audit: true,
		RequestID: "test-bin-1x1",
	})
	if err != nil {
		t.Fatalf("1x1 bin run: %v", err)
	}
	if res.Edges != total {
		t.Fatalf("merged %d edges, closed form %d", res.Edges, total)
	}
	if res.AuditChecks == 0 || res.AuditViolations != 0 {
		t.Fatalf("audit checks=%d violations=%d", res.AuditChecks, res.AuditViolations)
	}
	got, n := decodeBinSet(t, one.Bytes())
	if n != total || len(got) != len(want) {
		t.Fatalf("decoded %d edges (%d distinct), want %d (%d distinct)",
			n, len(got), total, len(want))
	}
	for l := range want {
		if !got[l] {
			t.Fatalf("edge %q missing from decoded bin stream", l)
		}
	}

	// Multi-block: each block restarts framing at its local offset 0, so
	// the merged file is a block-wise concatenation — verified per block
	// by the coordinator and in total by the closed form; two runs are
	// byte-identical.
	var m1, m2 bytes.Buffer
	opts := Options{Workers: urls, Rows: 3, Cols: 2, Format: "bin", RequestID: "test-bin-grid"}
	r1, err := Run(context.Background(), testSpec, &m1, opts)
	if err != nil {
		t.Fatalf("3x2 bin run: %v", err)
	}
	if r1.Edges != total {
		t.Fatalf("3x2 merged %d edges, closed form %d", r1.Edges, total)
	}
	if _, err := Run(context.Background(), testSpec, &m2, opts); err != nil {
		t.Fatalf("second 3x2 bin run: %v", err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatal("two bin runs produced different merged byte streams")
	}
}

// decodeMerged decodes a merged bin output block by block: each
// block's frames restart at block-local offset 0, so a block ends where
// the decoder reports a contiguity break.
func decodeMerged(t *testing.T, buf []byte) []exec.Edge {
	t.Helper()
	var edges []exec.Edge
	for len(buf) > 0 {
		n, _, trailing, err := wire.Decode(buf, 0, func(frame []exec.Edge) {
			edges = append(edges, frame...)
		})
		if n == 0 {
			t.Fatalf("merged bin output: undecodable block (%d bytes left): %v", len(buf), err)
		}
		buf = buf[len(buf)-trailing:]
	}
	return edges
}

// TestRunTextRendersBin: the tsv and ndjson outputs of a multi-block
// run are the line renderings of the bin output's decoded edges, in the
// same order.
func TestRunTextRendersBin(t *testing.T) {
	urls := newFleet(t, 2, nil)
	run := func(format string) []byte {
		var out bytes.Buffer
		if _, err := Run(context.Background(), testSpec, &out, Options{
			Workers: urls, Rows: 3, Cols: 2, Format: format, RequestID: "test-render-" + format,
		}); err != nil {
			t.Fatalf("%s run: %v", format, err)
		}
		return out.Bytes()
	}
	edges := decodeMerged(t, run("bin"))
	if want := testProduct(t).NumEdges(); int64(len(edges)) != want {
		t.Fatalf("bin output decodes to %d edges, closed form %d", len(edges), want)
	}
	var tsv, ndjson bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&tsv, "%d\t%d\n", e.V, e.W)
		fmt.Fprintf(&ndjson, "{\"v\":%d,\"w\":%d}\n", e.V, e.W)
	}
	if got := run("tsv"); !bytes.Equal(got, tsv.Bytes()) {
		t.Fatalf("tsv output (%d bytes) is not the bin output's rendering (%d bytes)", len(got), tsv.Len())
	}
	if got := run("ndjson"); !bytes.Equal(got, ndjson.Bytes()) {
		t.Fatalf("ndjson output (%d bytes) is not the bin output's rendering (%d bytes)", len(got), ndjson.Len())
	}
}

// TestRenderTextNeverRegrows: a verified text block is the rendering
// the coordinator's own walk of the block made, into a buffer allocated
// once, at its closed-form count times the widest line, which never
// regrows; the widest line is the rendering of the largest vertex ids,
// and the rendering is that of the edges the lease body carries.  Once
// merged, a block holds neither its rendering nor its expected bytes.
func TestRenderTextNeverRegrows(t *testing.T) {
	const rows, cols = 3, 2
	p, payloads, _ := leasePayloads(t, testSpec, rows, cols)
	for _, format := range []string{"tsv", "ndjson"} {
		opts, err := Options{Workers: []string{"test"}, Format: format}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		c, err := newCoordinator(p, testSpec.WithDefaults(), io.Discard, rows, cols, opts)
		if err != nil {
			t.Fatal(err)
		}
		top := p.N() - 1
		if got := int64(len(c.render(nil, []exec.Edge{{V: top, W: top}}))); got != c.lineMax {
			t.Fatalf("%s: the widest line renders to %d bytes, lineMax is %d", format, got, c.lineMax)
		}
		for bi, payload := range payloads {
			b := c.blocks[bi]
			b.inflight++ // issued, as next issues it
			x, err := c.expect(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.check(x, 0, bytes.NewReader(payload), completeTrailer())
			if err != nil {
				t.Fatalf("%s block (%d,%d): %v", format, b.row, b.col, err)
			}
			if got, want := int64(cap(res.buf)), b.want*c.lineMax; got != want {
				t.Errorf("%s block (%d,%d): text capacity %d, presized %d: the rendering regrew", format, b.row, b.col, got, want)
			}
			var leased []byte
			if _, _, _, err := wire.Decode(payload, 0, func(frame []exec.Edge) { leased = c.render(leased, frame) }); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.buf, leased) {
				t.Errorf("%s block (%d,%d): rendered %d bytes, the lease body's edges render to %d", format, b.row, b.col, len(res.buf), len(leased))
			}
			c.complete(c.workers[0], bi, false, res, nil)
		}
		if c.merged != p.NumEdges() {
			t.Fatalf("%s: merged %d edges, want %d", format, c.merged, p.NumEdges())
		}
		for _, b := range c.blocks {
			if b.buf != nil || b.exp != nil {
				t.Errorf("%s block (%d,%d): merged, yet holds its rendering (%d bytes) or expected bytes (%v)", format, b.row, b.col, len(b.buf), b.exp != nil)
			}
		}
	}
}

// completeTrailer is the trailer of a complete lease, with a Σ◊ that
// nothing outside Run's final check reads.
func completeTrailer() http.Header {
	h := http.Header{}
	h.Set(wire.TrailerStatus, "complete")
	h.Set(wire.TrailerFourSum, "0")
	return h
}

// --- Resume from banked frames (tentpole: distgen side) ---------------

// frameLen returns the byte length of the wire frame at the head of b,
// or 0 when b does not hold one complete frame.
func frameLen(b []byte) int {
	off := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	count, ok := uv()
	if !ok || count == 0 {
		return 0
	}
	if _, ok := uv(); !ok { // start offset
		return 0
	}
	if _, ok := uv(); !ok { // v0
		return 0
	}
	if _, ok := uv(); !ok { // w0
		return 0
	}
	for i := uint64(1); i < count; i++ {
		for j := 0; j < 2; j++ {
			if _, n := binary.Varint(b[off:]); n <= 0 {
				return 0
			} else {
				off += n
			}
		}
	}
	return off
}

// truncatingHandler cuts its first lease response: the first cutAt
// bytes of the body reach the wire — by default the first complete
// frame plus a few bytes of the second — then the connection drops
// with no trailers.  Every lease body is recorded.
type truncatingHandler struct {
	h     http.Handler
	cutAt func(payload []byte) int // bytes of the first lease to send; nil for the default cut
	fired atomic.Bool
	mu    sync.Mutex
	offs  []int64 // block-local offsets of every lease request, in order
}

func (th *truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/leases" {
		th.h.ServeHTTP(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	th.mu.Lock()
	th.offs = append(th.offs, leaseOffset(string(body)))
	th.mu.Unlock()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if !th.fired.CompareAndSwap(false, true) {
		th.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	th.h.ServeHTTP(rec, r)
	payload := rec.Body.Bytes()
	var cut int
	if th.cutAt != nil {
		cut = th.cutAt(payload)
	} else {
		cut = frameLen(payload)
		if cut == 0 || cut+5 >= len(payload) {
			// The harness depends on the block spanning at least two frames;
			// flag a bad spec choice instead of silently passing through.
			panic(fmt.Sprintf("truncation point %d of %d: test spec does not produce a multi-frame block", cut, len(payload)))
		}
		cut += 5
	}
	w.WriteHeader(http.StatusOK)
	w.Write(payload[:cut])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	hijackClose(w)
}

// leaseOffset pulls the "offset" field out of a lease request body.
func leaseOffset(body string) int64 {
	i := strings.LastIndex(body, `"offset":`)
	if i < 0 {
		return -1
	}
	rest := strings.TrimRight(body[i+len(`"offset":`):], "}")
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// TestRunBinResumeAfterTruncation: a worker dies mid-lease after one
// complete frame reaches the wire.  Leases are bin whatever the output
// rendering, so for every Format the coordinator salvages that frame,
// re-issues the lease with a non-zero block-local offset, and the
// assembled bank+tail block is verified and merged — byte-identical to
// a run that never saw the fault.
func TestRunBinResumeAfterTruncation(t *testing.T) {
	for _, format := range []string{"bin", "tsv", "ndjson"} {
		t.Run(format, func(t *testing.T) {
			var th *truncatingHandler
			urls := newFleet(t, 1, func(i int, h http.Handler) http.Handler {
				th = &truncatingHandler{h: h}
				return th
			})
			_, total := localEdgeSet(t, testSpec)

			var faulted bytes.Buffer
			res, err := Run(context.Background(), testSpec, &faulted, Options{
				Workers: urls, Rows: 1, Cols: 1, Format: format, Audit: true,
				RequestID: "test-resume-" + format,
			})
			if err != nil {
				t.Fatalf("run with truncated first lease: %v", err)
			}
			if !th.fired.Load() {
				t.Fatal("fault injection never fired")
			}
			if res.Edges != total {
				t.Fatalf("merged %d edges, closed form %d", res.Edges, total)
			}
			if want := testProduct(t).GlobalFourCycles(); res.FourCycles != want {
				t.Fatalf("fleet □ = %d, closed form %d", res.FourCycles, want)
			}
			if res.AuditChecks == 0 || res.AuditViolations != 0 {
				t.Fatalf("audit checks=%d violations=%d", res.AuditChecks, res.AuditViolations)
			}

			th.mu.Lock()
			offs := append([]int64(nil), th.offs...)
			th.mu.Unlock()
			if len(offs) < 2 || offs[0] != 0 {
				t.Fatalf("lease offsets %v: want the initial lease at 0 and a retry", offs)
			}
			resumed := false
			for _, o := range offs[1:] {
				if o > 0 {
					resumed = true
				}
			}
			if !resumed {
				t.Fatalf("lease offsets %v: no resume lease was issued — the salvaged frame was not banked", offs)
			}

			// The assembled stream must be byte-identical to an uninterrupted run.
			var clean bytes.Buffer
			if _, err := Run(context.Background(), testSpec, &clean, Options{
				Workers: newFleet(t, 1, nil), Rows: 1, Cols: 1, Format: format,
				RequestID: "test-clean-" + format,
			}); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if !bytes.Equal(faulted.Bytes(), clean.Bytes()) {
				t.Fatalf("resumed stream differs from uninterrupted stream (%d vs %d bytes)",
					faulted.Len(), clean.Len())
			}
		})
	}
}

// cutSpec is the cut matrix's product: its one-block lease spans 15
// frames and 112,281 bytes, so every cut below is a distinct place in
// the body and compare reads it in more than one 64 KiB read.
var cutSpec = spec.Spec{Factors: []string{"biclique8x8", "path4"}, Mode: "selfloop"}

// frameEnds lists, for every complete frame at the head of a block
// payload, the byte offset just past it and the block-local edge offset
// after it.
func frameEnds(b []byte) (at []int, next []int64) {
	for off := 0; ; {
		n := frameLen(b[off:])
		if n == 0 {
			return at, next
		}
		count, _ := binary.Uvarint(b[off:])
		off += n
		e := int64(count)
		if len(next) > 0 {
			e += next[len(next)-1]
		}
		at, next = append(at, off), append(next, e)
	}
}

// TestRunResumeCutMatrix: whichever byte the first lease of a block is
// cut at, the coordinator banks exactly the complete frames that
// arrived, resumes from the last complete frame boundary, and merges
// the bytes of a run that never saw the fault — for every output
// rendering.  The cuts: nothing; each of the first frame's count,
// start and v0 varints missing its last byte; exactly at each of the
// first three frame boundaries and one byte past each; the body minus
// its last byte; and the whole body with the connection dropped before
// the trailers, which resumes at offset == want.
func TestRunResumeCutMatrix(t *testing.T) {
	_, payloads, _ := leasePayloads(t, cutSpec, 1, 1)
	payload := payloads[0]
	at, next := frameEnds(payload)
	if len(at) < 4 || at[len(at)-1] != len(payload) {
		t.Fatalf("cut spec frames end at %v of %d bytes: want at least four whole frames", at, len(payload))
	}
	var hdr [3]int // byte offsets past the first frame's count, start and v0
	for i, off := 0, 0; i < len(hdr); i++ {
		_, n := binary.Uvarint(payload[off:])
		off += n
		hdr[i] = off
	}
	cuts := []struct {
		name string
		at   int
	}{
		{"nothing", 0},
		{"in count", hdr[0] - 1},
		{"in start", hdr[1] - 1},
		{"in v0", hdr[2] - 1},
		{"at frame 1", at[0]}, {"past frame 1", at[0] + 1},
		{"at frame 2", at[1]}, {"past frame 2", at[1] + 1},
		{"at frame 3", at[2]}, {"past frame 3", at[2] + 1},
		{"all but a byte", len(payload) - 1},
		{"no trailers", len(payload)},
	}
	for _, format := range []string{"bin", "tsv", "ndjson"} {
		var clean bytes.Buffer
		if _, err := Run(context.Background(), cutSpec, &clean, Options{
			Workers: newFleet(t, 1, nil), Rows: 1, Cols: 1, Format: format,
		}); err != nil {
			t.Fatalf("%s clean run: %v", format, err)
		}
		for _, cut := range cuts {
			// The retry resumes at the last frame boundary the cut kept.
			resume := int64(0)
			for i := range at {
				if at[i] <= cut.at {
					resume = next[i]
				}
			}
			t.Run(format+"/"+cut.name, func(t *testing.T) {
				var th *truncatingHandler
				urls := newFleet(t, 1, func(i int, h http.Handler) http.Handler {
					th = &truncatingHandler{h: h, cutAt: func([]byte) int { return cut.at }}
					return th
				})
				var out bytes.Buffer
				res, err := Run(context.Background(), cutSpec, &out, Options{
					Workers: urls, Rows: 1, Cols: 1, Format: format, Audit: true,
				})
				if err != nil {
					t.Fatalf("cut at byte %d: %v", cut.at, err)
				}
				if res.AuditChecks == 0 || res.AuditViolations != 0 {
					t.Fatalf("audit checks=%d violations=%d", res.AuditChecks, res.AuditViolations)
				}
				th.mu.Lock()
				offs := append([]int64(nil), th.offs...)
				th.mu.Unlock()
				if !th.fired.Load() || len(offs) != 2 || offs[0] != 0 || offs[1] != resume {
					t.Fatalf("cut at byte %d: lease offsets %v, want [0 %d]", cut.at, offs, resume)
				}
				if !bytes.Equal(out.Bytes(), clean.Bytes()) {
					t.Fatalf("cut at byte %d: merged %d bytes that differ from the clean run's %d", cut.at, out.Len(), clean.Len())
				}
			})
		}
	}
}

// encodeBlock encodes the one block of sp's 1×1 grid as the coordinator
// does, and checks its frame boundaries against frameEnds of its bytes.
func encodeBlock(tb testing.TB, p *core.Product, sp spec.Spec) *expected {
	tb.Helper()
	opts, err := Options{Workers: []string{"test"}}.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := newCoordinator(p, sp.WithDefaults(), io.Discard, 1, 1, opts)
	if err != nil {
		tb.Fatal(err)
	}
	x, err := c.encode(context.Background(), c.blocks[0])
	if err != nil {
		tb.Fatal(err)
	}
	at, next := frameEnds(x.body)
	if len(x.bounds) != len(at)+1 || x.bounds[0] != (bound{}) {
		tb.Fatalf("%d frame boundaries, frameEnds finds %d frames", len(x.bounds), len(at))
	}
	for i := range at {
		if x.bounds[i+1] != (bound{at: at[i], edge: next[i]}) {
			tb.Fatalf("frame %d ends at %+v, frameEnds says byte %d, edge %d", i, x.bounds[i+1], at[i], next[i])
		}
	}
	return x
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// wantBank is the bank of a lease resumed at frame boundary (head,
// base) whose body shares its first m bytes with the expected bytes:
// the last frame boundary inside them, or base.
func wantBank(at []int, next []int64, head int, base int64, m int) int64 {
	for i := range at {
		if at[i] > head && at[i] <= head+m {
			base = next[i]
		}
	}
	return base
}

// sharedPrefix is the length of the longest common prefix of a and b.
func sharedPrefix(a, b []byte) int {
	m := 0
	for m < len(a) && m < len(b) && a[m] == b[m] {
		m++
	}
	return m
}

// TestReceiveMatchesWholeRead: a lease body received through compare
// gets the verdict, bank and error of one whole read — io.ReadAll of
// the body capped one byte past the expected bytes, then bytes.Equal
// against them — whatever sizes its reads come in, and compare never
// reads past that cap.  The bank is the last frame boundary inside the
// prefix the body shares with the expected bytes.
func TestReceiveMatchesWholeRead(t *testing.T) {
	p, payloads, _ := leasePayloads(t, cutSpec, 1, 1)
	payload := payloads[0]
	at, next := frameEnds(payload)
	x := encodeBlock(t, p, cutSpec)
	if !bytes.Equal(x.body, payload) {
		t.Fatalf("encoded %d bytes that differ from the replica's %d-byte lease body", len(x.body), len(payload))
	}
	errBoom := errors.New("connection reset")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flipped := bytes.Clone(payload)
	flipped[at[2]+7] ^= 0x10
	bodies := []struct {
		name string
		from int // resume after this many frames
		body []byte
		err  error // read after body, if any
	}{
		{"whole", 0, payload, nil},
		{"tail from frame 2", 2, payload[at[1]:], nil},
		{"one byte past", 0, cat(payload, []byte{0}), nil},
		{"tail one frame past", 2, cat(payload[at[1]:], payload[at[0]:at[1]]), nil},
		{"empty tail", len(at), nil, nil},
		{"empty tail one byte past", len(at), []byte{1}, nil},
		{"truncated", 0, payload[:len(payload)-3], nil},
		{"at a frame boundary", 0, payload[:at[3]], nil},
		{"empty", 0, nil, nil},
		{"read error", 0, payload[:at[8]+100], errBoom},
		{"read error after the whole body", 0, payload, errBoom},
		{"frame dropped", 0, cat(payload[:at[0]], payload[at[1]:]), nil},
		{"byte flipped", 0, flipped, nil},
		{"byte flipped, then a read error", 0, flipped[:at[5]], errBoom},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"as is", func(r io.Reader) io.Reader { return r }},
		{"OneByteReader", iotest.OneByteReader},
		{"HalfReader", iotest.HalfReader},
		{"DataErrReader", iotest.DataErrReader},
		{"OneByteReader over DataErrReader", func(r io.Reader) io.Reader { return iotest.OneByteReader(iotest.DataErrReader(r)) }},
	}
	for _, bd := range bodies {
		head, base := 0, int64(0)
		if bd.from > 0 {
			head, base = at[bd.from-1], next[bd.from-1]
		}
		want := payload[head:]
		open := func() io.Reader {
			if bd.err != nil {
				return io.MultiReader(bytes.NewReader(bd.body), iotest.ErrReader(bd.err))
			}
			return bytes.NewReader(bd.body)
		}
		// One whole read, capped one byte past the expected bytes.
		whole, rerr := io.ReadAll(io.LimitReader(open(), int64(len(want))+1))
		m := sharedPrefix(whole, want)
		ok := rerr == nil && bytes.Equal(whole, want)
		bank := wantBank(at, next, head, base, m)
		readErr := rerr != nil && m == len(whole) // the body matched until it failed
		for _, rd := range readers {
			name := bd.name + " via " + rd.name
			cr := &countingReader{r: rd.wrap(open())}
			got, err := x.compare(cr, base)
			if (err == nil) != ok || got != bank {
				t.Errorf("%s: bank %d, err %v; whole read: bank %d, accepted %v", name, got, err, bank, ok)
			}
			if bd.err != nil && errors.Is(err, bd.err) != readErr {
				t.Errorf("%s: err %v, want the read error %v: %v", name, err, bd.err, readErr)
			}
			if cr.n > len(want)+1 {
				t.Errorf("%s: read %d bytes, past the %d expected and one more", name, cr.n, len(want))
			}
		}
	}
}

// stepReader reads b in reads of at most step bytes.
type stepReader struct {
	b    []byte
	step int
}

func (r *stepReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.step)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// FuzzLeaseCompare edits a clean lease body at an offset the fuzzer
// picks — one byte flipped, inserted or deleted, the body cut short, or
// bytes appended — and has compare read it, as a lease resumed at a
// frame boundary and in reads of a size the fuzzer also picks.  compare
// must accept the body if and only if it is the clean body, read at most
// one byte past the clean body's length, and bank exactly the last frame
// boundary inside the prefix the two share (the oracle: frameEnds and
// bytes.Equal).
func FuzzLeaseCompare(f *testing.F) {
	p, payloads, _ := leasePayloads(f, cutSpec, 1, 1)
	clean := payloads[0]
	at, next := frameEnds(clean)
	x := encodeBlock(f, p, cutSpec)
	if !bytes.Equal(x.body, clean) {
		f.Fatalf("encoded %d bytes that differ from the replica's %d-byte lease body", len(x.body), len(clean))
	}
	// op: 0 flip, 1 insert, 2 delete, 3 truncate, 4 extend.
	f.Add(uint8(0), uint32(0), byte(0), uint8(0), uint32(1<<20))           // the clean body
	f.Add(uint8(0), uint32(at[0]+9), byte(0x40), uint8(0), uint32(1<<20))  // a flipped delta bit
	f.Add(uint8(1), uint32(at[1]), byte(1), uint8(1), uint32(4096))        // a byte inserted at a boundary
	f.Add(uint8(2), uint32(3), byte(0), uint8(2), uint32(1))               // a header byte deleted
	f.Add(uint8(3), uint32(at[2]), byte(0), uint8(0), uint32(65536))       // cut at a boundary
	f.Add(uint8(4), uint32(len(clean)), byte(7), uint8(15), uint32(1<<20)) // bytes past the block's end
	f.Fuzz(func(t *testing.T, op uint8, off uint32, val byte, from uint8, step uint32) {
		k := int(from) % (len(at) + 1) // resume after k frames
		head, base := 0, int64(0)
		if k > 0 {
			head, base = at[k-1], next[k-1]
		}
		want := clean[head:]
		o := int(off % uint32(len(want)+1))
		body := bytes.Clone(want)
		switch op % 5 {
		case 0:
			if o < len(body) {
				body[o] ^= val
			}
		case 1:
			body = slices.Insert(body, o, val)
		case 2:
			if o < len(body) {
				body = slices.Delete(body, o, o+1)
			}
		case 3:
			body = body[:o]
		case 4:
			body = append(append(body, val), want[o:]...)
		}
		r := &countingReader{r: &stepReader{b: body, step: 1 + int(step%(2*readChunk))}}
		bank, err := x.compare(r, base)
		if ok := bytes.Equal(body, want); (err == nil) != ok {
			t.Fatalf("body of %d bytes (clean %d): accepted %v, err %v", len(body), len(want), ok, err)
		}
		if wb := wantBank(at, next, head, base, sharedPrefix(body, want)); bank != wb {
			t.Fatalf("banked edge %d, want %d (err %v)", bank, wb, err)
		}
		if r.n > len(want)+1 {
			t.Fatalf("read %d bytes, past the %d expected and one more", r.n, len(want))
		}
	})
}

// faultyLeases wraps a replica so that its lease responses are replayed
// with edit applied to the body and the trailers — every lease, or with
// once only the first.  It models a worker that replays, reorders or
// drops frames, or lies in a trailer.
func faultyLeases(h http.Handler, once bool, edit func(body []byte, trailer http.Header) []byte) http.Handler {
	var fired atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/leases" || (once && !fired.CompareAndSwap(false, true)) {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		res := rec.Result()
		for k, v := range res.Header {
			w.Header()[k] = v // includes the Trailer announcement
		}
		w.WriteHeader(res.StatusCode)
		w.Write(edit(rec.Body.Bytes(), res.Trailer))
		for k, v := range res.Trailer {
			w.Header()[k] = v
		}
	})
}

// reframe re-encodes the first frame of a lease body with wire.PutFrame
// after edit has altered its edges, so the body still decodes.
func reframe(b []byte, edit func(edges []exec.Edge)) []byte {
	n := frameLen(b)
	_, k := binary.Uvarint(b)
	start, _ := binary.Uvarint(b[k:])
	var edges []exec.Edge
	if _, _, _, err := wire.Decode(b[:n], int64(start), func(frame []exec.Edge) { edges = slices.Clone(frame) }); err != nil {
		panic(err)
	}
	edit(edges)
	frame := make([]byte, wire.MaxFrameLen)
	return append(frame[:wire.PutFrame(frame, int64(start), edges)], b[n:]...)
}

// TestRunFaultMatrix is distgen's fault matrix beyond truncation and
// stalls: a lease body with a frame replayed, with two frames swapped,
// a complete lease whose status trailer says aborted, an aborted one
// (whole frames, short of the block) whose status says complete, an
// edge-count trailer one too high or too low, and two faults that
// still decode: a corrupt delta in the first frame, which shifts every
// later edge of the frame, and two of its edges swapped.  Each fault
// hits either the first lease only or every lease of the one replica,
// and every run, unaudited and audited, must end in the clean run's
// bytes or a typed error: a one-off fault is retried into the clean
// bytes after the faulty lease fails, and a fault on every lease
// exhausts the block, except a lying edge count, which the coordinator
// never reads (it compares the body with its own encoding of the
// block), so every such run merges the clean bytes and fails no lease.
func TestRunFaultMatrix(t *testing.T) {
	want := func() int64 {
		p, err := cutSpec.WithDefaults().Build()
		if err != nil {
			t.Fatal(err)
		}
		return p.NumEdges()
	}()
	var clean bytes.Buffer
	if _, err := Run(context.Background(), cutSpec, &clean, Options{
		Workers: newFleet(t, 1, nil), Rows: 1, Cols: 1,
	}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	frames := func(b []byte) []int {
		at, _ := frameEnds(b)
		if len(at) < 3 || at[len(at)-1] != len(b) {
			panic(fmt.Sprintf("lease body of %d bytes has frames ending at %v: want three or more whole frames", len(b), at))
		}
		return at
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cells := []struct {
		name  string
		edit  func(body []byte, tr http.Header) []byte
		every error // the outcome when every lease is faulty: nil (the clean bytes) or the typed error
	}{
		{"replayed frame", func(b []byte, _ http.Header) []byte {
			at := frames(b)
			return cat(b[:at[1]], b[at[0]:at[1]], b[at[1]:])
		}, ErrExhausted},
		{"reordered frames", func(b []byte, _ http.Header) []byte {
			at := frames(b)
			return cat(b[:at[0]], b[at[1]:at[2]], b[at[0]:at[1]], b[at[2]:])
		}, ErrExhausted},
		{"complete says aborted", func(b []byte, tr http.Header) []byte {
			tr.Set(wire.TrailerStatus, "aborted")
			return b
		}, ErrExhausted},
		{"aborted says complete", func(b []byte, tr http.Header) []byte {
			at := frames(b)
			n, _, _, _ := wire.Decode(b[:at[1]], 0, nil)
			tr.Set(wire.TrailerStatus, "complete")
			tr.Set(wire.TrailerEdges, strconv.FormatInt(n, 10))
			return b[:at[1]]
		}, ErrExhausted},
		{"edges trailer high", func(b []byte, tr http.Header) []byte {
			tr.Set(wire.TrailerEdges, strconv.FormatInt(want+1, 10))
			return b
		}, nil},
		{"edges trailer low", func(b []byte, tr http.Header) []byte {
			tr.Set(wire.TrailerEdges, strconv.FormatInt(want-1, 10))
			return b
		}, nil},
		{"corrupt delta", func(b []byte, _ http.Header) []byte {
			return reframe(b, func(e []exec.Edge) {
				for i := 5; i < len(e); i++ {
					e[i].W++
				}
			})
		}, ErrExhausted},
		{"swapped edges", func(b []byte, _ http.Header) []byte {
			return reframe(b, func(e []exec.Edge) { e[3], e[4] = e[4], e[3] })
		}, ErrExhausted},
	}
	for _, c := range cells {
		for _, once := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/once=%v", c.name, once), func(t *testing.T) {
				for _, audited := range []bool{false, true} {
					urls := newFleet(t, 1, func(_ int, h http.Handler) http.Handler { return faultyLeases(h, once, c.edit) })
					var out bytes.Buffer
					res, err := Run(context.Background(), cutSpec, &out, Options{
						Workers: urls, Rows: 1, Cols: 1, Audit: audited, MaxAttempts: 2,
					})
					if wantErr := c.every; !once && wantErr != nil {
						if !errors.Is(err, wantErr) || out.Len() != 0 {
							t.Fatalf("audit=%v: err %v with %d bytes merged; want %v and nothing merged", audited, err, out.Len(), wantErr)
						}
						continue
					}
					if err != nil || !bytes.Equal(out.Bytes(), clean.Bytes()) {
						t.Fatalf("audit=%v: err %v, merged %d bytes; want the clean run's %d", audited, err, out.Len(), clean.Len())
					}
					if audited && (res.AuditChecks == 0 || res.AuditViolations != 0) {
						t.Fatalf("audit checks=%d violations=%d", res.AuditChecks, res.AuditViolations)
					}
					// The merged bytes are the coordinator's own whatever a
					// lease carried, so what shows a one-off fault was seen
					// is the failed lease before the retry.
					fails := 0
					if once && c.every != nil {
						fails = 1
					}
					if got := res.Workers[0].Failures; got != fails {
						t.Fatalf("audit=%v: %d failed leases, want %d", audited, got, fails)
					}
				}
			})
		}
	}
}
