package distgen

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kronbip/internal/serve"
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
			_, err = c.lease(context.Background(), c.workers[0], c.blocks[0], 0, nil)
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

// truncatingHandler cuts its first lease response mid-frame: the first
// complete frame plus a few bytes of the second reach the wire, then
// the connection drops with no trailers.  Every lease body is recorded.
type truncatingHandler struct {
	h     http.Handler
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
	cut := frameLen(payload)
	if cut == 0 || cut+5 >= len(payload) {
		// The harness depends on the block spanning at least two frames;
		// flag a bad spec choice instead of silently passing through.
		panic(fmt.Sprintf("truncation point %d of %d: test spec does not produce a multi-frame block", cut, len(payload)))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(payload[:cut+5])
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

// TestRunBinResumeAfterTruncation is the tentpole acceptance test: a
// worker dies mid-lease after one complete frame reaches the wire.  The
// coordinator salvages that frame, re-issues the lease with a non-zero
// block-local offset, and the assembled bank+tail stream is verified
// and merged — byte-identical to a run that never saw the fault.
func TestRunBinResumeAfterTruncation(t *testing.T) {
	var th *truncatingHandler
	urls := newFleet(t, 1, func(i int, h http.Handler) http.Handler {
		th = &truncatingHandler{h: h}
		return th
	})
	_, total := localEdgeSet(t, testSpec)

	var faulted bytes.Buffer
	res, err := Run(context.Background(), testSpec, &faulted, Options{
		Workers: urls, Rows: 1, Cols: 1, Format: "bin", Audit: true,
		RequestID: "test-bin-resume",
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
		Workers: newFleet(t, 1, nil), Rows: 1, Cols: 1, Format: "bin",
		RequestID: "test-bin-clean",
	}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if !bytes.Equal(faulted.Bytes(), clean.Bytes()) {
		t.Fatalf("resumed stream differs from uninterrupted stream (%d vs %d bytes)",
			faulted.Len(), clean.Len())
	}
}
