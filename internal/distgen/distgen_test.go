package distgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kronbip/internal/audit"
	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
)

// testSpec is the standard fleet-test product: a 2-chain small enough
// for exhaustive local comparison, large enough for a multi-block grid.
var testSpec = spec.Spec{Factors: []string{"crown3", "path3"}, Mode: "selfloop"}

// newFleet starts n serve replicas behind httptest and returns their
// base URLs.  wrap, when non-nil, decorates each replica's handler
// (fault injection).
func newFleet(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{})
		h := s.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			ts.Close()
			_ = s.Shutdown(5 * time.Second)
		})
		urls[i] = ts.URL
	}
	return urls
}

// testProduct builds testSpec's product locally.
func testProduct(t *testing.T) *core.Product {
	t.Helper()
	p, err := testSpec.WithDefaults().Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// localEdgeSet streams the spec locally and returns the canonical edge
// multiset keys.
func localEdgeSet(t *testing.T, sp spec.Spec) (map[string]bool, int64) {
	t.Helper()
	p, err := sp.WithDefaults().Build()
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	p.EachEdge(func(v, w int) bool {
		set[fmt.Sprintf("%d\t%d", v, w)] = true
		return true
	})
	return set, p.NumEdges()
}

// parseTSVSet splits a merged tsv payload into its edge-line set,
// failing on duplicates.
func parseTSVSet(t *testing.T, buf []byte) map[string]bool {
	t.Helper()
	set := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(buf, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if set[string(line)] {
			t.Fatalf("merged stream carries edge %q twice", line)
		}
		set[string(line)] = true
	}
	return set
}

// TestRunHappyPath: three healthy replicas, explicit grid, audit on —
// the merged stream is exactly the local edge set, the totals match the
// closed form, the audit is clean, and the byte stream is deterministic
// across runs.
func TestRunHappyPath(t *testing.T) {
	urls := newFleet(t, 3, nil)
	want, total := localEdgeSet(t, testSpec)
	opts := Options{Workers: urls, Rows: 3, Cols: 2, Audit: true, RequestID: "test-run-happy"}

	var out1 bytes.Buffer
	res, err := Run(context.Background(), testSpec, &out1, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Edges != total {
		t.Fatalf("merged %d edges, closed form %d", res.Edges, total)
	}
	if want := testProduct(t).GlobalFourCycles(); res.FourCycles != want {
		t.Fatalf("fleet □ = %d, closed form %d", res.FourCycles, want)
	}
	if res.Blocks != 6 || res.Rows != 3 || res.Cols != 2 {
		t.Fatalf("grid %dx%d (%d blocks), want 3x2", res.Rows, res.Cols, res.Blocks)
	}
	if res.AuditChecks == 0 || res.AuditViolations != 0 {
		t.Fatalf("audit checks=%d violations=%d", res.AuditChecks, res.AuditViolations)
	}
	got := parseTSVSet(t, out1.Bytes())
	if len(got) != len(want) {
		t.Fatalf("merged %d distinct edges, local stream has %d", len(got), len(want))
	}
	for l := range want {
		if !got[l] {
			t.Fatalf("edge %q missing from merged stream", l)
		}
	}
	var leases int
	for _, w := range res.Workers {
		leases += w.Leases
	}
	if leases == 0 {
		t.Fatal("no worker recorded an accepted lease")
	}

	// Determinism: a second run over the same fleet produces the
	// identical merged byte stream — block-major order is a fixed
	// permutation, not a race outcome.
	var out2 bytes.Buffer
	if _, err := Run(context.Background(), testSpec, &out2, opts); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("two runs over the same fleet produced different merged byte streams")
	}
}

// killerHandler simulates a replica dying mid-lease: the first lease
// response is cut off after a few bytes reach the wire, and every
// request after that has its connection dropped immediately.
type killerHandler struct {
	h      http.Handler
	killed atomic.Bool
}

func (k *killerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/leases" {
		k.h.ServeHTTP(w, r)
		return
	}
	if k.killed.Load() {
		hijackClose(w)
		return
	}
	k.h.ServeHTTP(&killWriter{ResponseWriter: w, k: k}, r)
}

// hijackClose takes over the connection and closes it — the client sees
// a dropped connection, exactly like a crashed process.
func hijackClose(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
		}
	}
}

// killWriter crashes the replica on its first body write: half the bytes
// reach the wire, then the connection drops and every later write errors
// — a lease truncated mid-payload.
type killWriter struct {
	http.ResponseWriter
	k *killerHandler
}

func (kw *killWriter) Write(b []byte) (int, error) {
	if kw.k.killed.Load() {
		return 0, net.ErrClosed
	}
	if n := len(b) / 2; n > 0 {
		kw.ResponseWriter.Write(b[:n])
		if f, ok := kw.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
	}
	kw.k.killed.Store(true)
	hijackClose(kw.ResponseWriter)
	return 0, net.ErrClosed
}

func (kw *killWriter) Flush() {
	if kw.k.killed.Load() {
		return
	}
	if f, ok := kw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// holdLeases serves h, but answers no lease until counter c has moved
// past its value at the call (or 5 s have passed).  The tests of this
// package do not run in parallel, so the process-wide counter moves
// only for the calling test's own run.
func holdLeases(h http.Handler, c *obs.Counter) http.Handler {
	before := c.Value()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/leases" {
			deadline := time.Now().Add(5 * time.Second)
			for c.Value() <= before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestRunWorkerKilledMidLease is the fault-injection acceptance test:
// one of three workers dies mid-lease (partial payload on the wire, then
// connection drops forever).  The coordinator re-issues its leases to
// the surviving replicas, the run completes, the reassembled total
// equals the closed-form |E_C|, and the online audit (degree sums + dual
// 4-cycle routes + membership) reports clean on the merged stream.
func TestRunWorkerKilledMidLease(t *testing.T) {
	killer := &killerHandler{}
	urls := newFleet(t, 3, func(i int, h http.Handler) http.Handler {
		if i == 1 {
			killer.h = h
			return killer
		}
		// The healthy replicas answer no lease until the doomed worker's
		// failure is booked, so a speculative twin cannot deliver its
		// block first: a failed lease of a delivered block counts as no
		// failure.
		return holdLeases(h, mLeasesFailed)
	})
	want, total := localEdgeSet(t, testSpec)

	var out bytes.Buffer
	res, err := Run(context.Background(), testSpec, &out, Options{
		Workers:   urls,
		Rows:      4,
		Cols:      2,
		Audit:     true,
		RequestID: "test-run-killed",
	})
	if err != nil {
		t.Fatalf("Run with a killed worker: %v", err)
	}
	if !killer.killed.Load() {
		t.Fatal("fault injection never fired: the doomed worker was not asked for a lease")
	}
	if res.Edges != total {
		t.Fatalf("merged %d edges, closed form %d", res.Edges, total)
	}
	if res.AuditChecks == 0 || res.AuditViolations != 0 {
		t.Fatalf("audit checks=%d violations=%d", res.AuditChecks, res.AuditViolations)
	}
	got := parseTSVSet(t, out.Bytes())
	if len(got) != len(want) {
		t.Fatalf("merged %d distinct edges, local stream has %d", len(got), len(want))
	}
	var killedStats WorkerStats
	for _, w := range res.Workers {
		if w.URL == urls[1] {
			killedStats = w
		}
	}
	if killedStats.Failures == 0 {
		t.Fatalf("killed worker recorded no failures: %+v", res.Workers)
	}
	if res.Retries == 0 {
		t.Fatal("no lease was re-issued despite a killed worker")
	}
}

// saturatedHandler answers every lease 429 + Retry-After, tracking how
// many times it was asked.
type saturatedHandler struct {
	h    http.Handler
	hits atomic.Int64
}

func (s *saturatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/leases" {
		s.h.ServeHTTP(w, r)
		return
	}
	s.hits.Add(1)
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusTooManyRequests)
}

// TestRunHonors429Backoff: a permanently-saturated replica is parked for
// its full Retry-After instead of being hammered; the healthy replicas
// complete the run, and the saturation never counts against any block's
// attempt budget.
func TestRunHonors429Backoff(t *testing.T) {
	var sat *saturatedHandler
	urls := newFleet(t, 3, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			sat = &saturatedHandler{h: h}
			return sat
		}
		return h
	})
	_, total := localEdgeSet(t, testSpec)
	var out bytes.Buffer
	res, err := Run(context.Background(), testSpec, &out, Options{
		Workers:   urls,
		Rows:      4,
		Cols:      2,
		RequestID: "test-run-backoff",
	})
	if err != nil {
		t.Fatalf("Run with a saturated worker: %v", err)
	}
	if res.Edges != total {
		t.Fatalf("merged %d edges, closed form %d", res.Edges, total)
	}
	var satStats WorkerStats
	for _, w := range res.Workers {
		if w.URL == urls[0] {
			satStats = w
		}
	}
	if sat.hits.Load() > 0 {
		// The worker was tried; after the 429 it must be parked for the
		// whole Retry-After second — far longer than the healthy replicas
		// need for this tiny grid — so it gets at most one retry window's
		// worth of requests, not a hammering loop.
		if n := sat.hits.Load(); n > 2 {
			t.Fatalf("saturated worker was asked %d times; backoff not honored", n)
		}
		if satStats.Backoffs == 0 {
			t.Fatalf("saturated worker stats recorded no backoffs: %+v", satStats)
		}
		if satStats.Failures != 0 {
			t.Fatalf("429 was charged as a failure: %+v", satStats)
		}
	}
	if satStats.Leases != 0 {
		t.Fatalf("saturated worker somehow completed a lease: %+v", satStats)
	}
}

// cleanRun is one tsv run of testSpec over a fresh healthy fleet on a
// rows×cols grid: the bytes every faulted run of that grid must merge.
func cleanRun(t *testing.T, rows, cols int) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := Run(context.Background(), testSpec, &out, Options{
		Workers: newFleet(t, 2, nil), Rows: rows, Cols: cols,
	}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return out.Bytes()
}

// workerStats finds one replica's share of a run.
func workerStats(t *testing.T, res *Result, url string) WorkerStats {
	t.Helper()
	for _, w := range res.Workers {
		if w.URL == url {
			return w
		}
	}
	t.Fatalf("no stats for worker %s in %+v", url, res.Workers)
	return WorkerStats{}
}

// TestRunReturnsOnceTwinDelivers: one replica sends the headers of its
// first lease and then stalls.  A speculative twin on the other replica
// delivers the block, and Run returns at once, not after the default
// two-minute lease timeout, with the clean run's bytes; the cancelled
// twin is neither a failure nor a retry.
func TestRunReturnsOnceTwinDelivers(t *testing.T) {
	var stalled atomic.Bool
	release := make(chan struct{})
	urls := newFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/leases" || !stalled.CompareAndSwap(false, true) {
				h.ServeHTTP(w, r)
				return
			}
			io.Copy(io.Discard, r.Body) // so the server notices the client leave
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
			case <-release:
			}
		})
	})
	t.Cleanup(func() { close(release) }) // runs before the fleet closes
	want := cleanRun(t, 2, 2)

	start := time.Now()
	var out bytes.Buffer
	res, err := Run(context.Background(), testSpec, &out, Options{Workers: urls, Rows: 2, Cols: 2})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Run took %v after the twin delivered", took)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !stalled.Load() {
		t.Fatal("the stalling replica was never leased a block")
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("merged %d bytes that differ from the clean run's %d", out.Len(), len(want))
	}
	if res.Retries != 1 {
		t.Fatalf("%d retries, want 1: the speculative twin only", res.Retries)
	}
	if st := workerStats(t, res, urls[0]); st.Failures != 0 {
		t.Fatalf("the cancelled twin counted as a failure: %+v", st)
	}
}

// TestRunReturnsDespiteEndless429: one replica answers every lease 429
// with a body that never ends.  The coordinator drains at most 512
// bytes of it and parks the replica, the other replica delivers every
// block, and Run returns at once with the clean run's bytes and without
// a retry or a failure.
func TestRunReturnsDespiteEndless429(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	urls := newFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			// The healthy replica answers no lease until the saturated
			// one's 429 is booked, so it can neither deliver every block
			// nor a speculative twin of the saturated lease first.
			return holdLeases(h, mLeasesBackoff)
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/leases" {
				h.ServeHTTP(w, r)
				return
			}
			hits.Add(1)
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			chunk := bytes.Repeat([]byte("saturated\n"), 100)
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				if _, err := w.Write(chunk); err != nil {
					return
				}
				w.(http.Flusher).Flush()
				select {
				case <-r.Context().Done():
					return
				case <-release:
					return
				case <-tick.C:
				}
			}
		})
	})
	t.Cleanup(func() { close(release) }) // runs before the fleet closes
	want := cleanRun(t, 4, 2)

	start := time.Now()
	var out bytes.Buffer
	res, err := Run(context.Background(), testSpec, &out, Options{Workers: urls, Rows: 4, Cols: 2})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Run took %v", took)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hits.Load() == 0 {
		t.Fatal("the saturated replica was never asked for a lease")
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("merged %d bytes that differ from the clean run's %d", out.Len(), len(want))
	}
	st := workerStats(t, res, urls[0])
	if res.Retries != 0 || st.Failures != 0 || st.Backoffs == 0 {
		t.Fatalf("retries %d, saturated replica %+v: want no retry or failure, and a backoff", res.Retries, st)
	}
}

// blockWriter keeps every Write it is given as one block.
type blockWriter struct{ writes [][]byte }

func (w *blockWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestRunWritesOneBlockPerWrite pins the merge's contract with its
// writer, on which perfbench's reference op relies: one Write per
// non-empty block, in (row, col) order, holding the whole block in the
// output rendering — and never data the writer must not retain, so the
// block buffer may be reused once Write returns.
func TestRunWritesOneBlockPerWrite(t *testing.T) {
	const rows, cols = 3, 2
	urls := newFleet(t, 2, nil)
	p := testProduct(t)
	for _, format := range []string{"bin", "tsv", "ndjson"} {
		var w blockWriter
		if _, err := Run(context.Background(), testSpec, &w, Options{
			Workers: urls, Rows: rows, Cols: cols, Format: format, Audit: true,
		}); err != nil {
			t.Fatalf("%s run: %v", format, err)
		}
		i := 0
		for r := 0; r < rows; r++ {
			for col := 0; col < cols; col++ {
				want, err := p.BlockEdgeCount(r, rows, col, cols)
				if err != nil {
					t.Fatal(err)
				}
				if want == 0 {
					continue
				}
				var edges []exec.Edge
				if err := p.EachEdgeBlockRangeBatchContext(context.Background(), r, rows, col, cols, 0, want, func(b []exec.Edge) bool {
					edges = append(edges, b...)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if i == len(w.writes) {
					t.Fatalf("%s: %d writes, block (%d,%d) never written", format, len(w.writes), r, col)
				}
				got := w.writes[i]
				i++
				switch format {
				case "bin":
					var dec []exec.Edge
					n, _, trailing, err := wire.Decode(got, 0, func(f []exec.Edge) { dec = append(dec, f...) })
					if err != nil || trailing != 0 || n != want || !slices.Equal(dec, edges) {
						t.Fatalf("bin write %d is not block (%d,%d): %d edges, %d trailing bytes, err %v", i, r, col, n, trailing, err)
					}
				case "tsv":
					if !bytes.Equal(got, exec.AppendTSV(nil, edges)) {
						t.Fatalf("tsv write %d is not block (%d,%d)", i, r, col)
					}
				default:
					if !bytes.Equal(got, exec.AppendNDJSON(nil, edges)) {
						t.Fatalf("ndjson write %d is not block (%d,%d)", i, r, col)
					}
				}
			}
		}
		if i != len(w.writes) {
			t.Fatalf("%s: %d writes for %d non-empty blocks", format, len(w.writes), i)
		}
	}
}

// TestRunRequestIDPropagation: every worker sees the coordinator's
// request id and one run-wide trace id on each lease request.
func TestRunRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	ids, traces := map[string]bool{}, map[string]bool{}
	var seen atomic.Int64
	urls := newFleet(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/leases" {
				seen.Add(1)
				// Header values are recorded pre-middleware, exactly as the
				// coordinator sent them.  A malformed traceparent shows up as
				// a distinct "malformed:" entry and fails the count below.
				id := r.Header.Get(wire.HeaderRequestID)
				tp := r.Header.Get(wire.HeaderTraceparent)
				tid, ok := cutTraceID(tp)
				if !ok {
					tid = "malformed:" + tp
				}
				mu.Lock()
				ids[id] = true
				traces[tid] = true
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})
	var out bytes.Buffer
	res, err := Run(context.Background(), testSpec, &out, Options{
		Workers:   urls,
		Rows:      2,
		Cols:      2,
		RequestID: "corr-test-run",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "corr-test-run" {
		t.Fatalf("result request id %q", res.RequestID)
	}
	if seen.Load() == 0 {
		t.Fatal("no lease requests observed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 1 || !ids["corr-test-run"] {
		t.Fatalf("lease request ids %v, want exactly {corr-test-run}", ids)
	}
	if len(traces) != 1 {
		t.Fatalf("leases carried %v (%d distinct trace ids), want one run-wide id", traces, len(traces))
	}
}

// cutTraceID extracts the trace-id field of a traceparent header.
func cutTraceID(tp string) (string, bool) {
	parts := bytes.Split([]byte(tp), []byte("-"))
	if len(parts) != 4 || len(parts[1]) != 32 {
		return "", false
	}
	return string(parts[1]), true
}

// TestRunAllWorkersDead: every lease fails; the run must abort with
// ErrExhausted instead of spinning forever.
func TestRunAllWorkersDead(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hijackClose(w)
	}))
	t.Cleanup(ts.Close)
	var out bytes.Buffer
	_, err := Run(context.Background(), testSpec, &out, Options{
		Workers:     []string{ts.URL},
		Rows:        1,
		Cols:        1,
		MaxAttempts: 2,
	})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

// TestRunContextCancel: cancelling the run context stops the coordinator
// promptly with ctx.Err.
func TestRunContextCancel(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block // a lease that never completes
	}))
	t.Cleanup(func() { close(block); ts.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	var out bytes.Buffer
	_, err := Run(ctx, testSpec, &out, Options{Workers: []string{ts.URL}, Rows: 1, Cols: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCountMismatchRejected: a worker returning a well-formed stream
// with the wrong edge count is caught by the closed-form check and never
// merged; with one worker and MaxAttempts small, the run aborts.
func TestRunCountMismatchRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", wire.TrailerStatus+", "+wire.TrailerEdges)
		w.WriteHeader(http.StatusOK)
		frame := make([]byte, wire.MaxFrameLen)
		w.Write(frame[:wire.PutFrame(frame, 0, []exec.Edge{{V: 0, W: 1}})]) // one edge, whatever the block wanted
		w.Header().Set(wire.TrailerStatus, "complete")
		w.Header().Set(wire.TrailerEdges, "1")
	}))
	t.Cleanup(ts.Close)
	var out bytes.Buffer
	_, err := Run(context.Background(), testSpec, &out, Options{
		Workers:     []string{ts.URL},
		Rows:        1,
		Cols:        1,
		MaxAttempts: 1,
	})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted (count mismatch must be a lease failure)", err)
	}
	if out.Len() != 0 {
		t.Fatalf("unverified payload reached the merged output: %q", out.String())
	}
}

// TestRunLeaseBodyCeiling: a worker that streams well-formed frames
// past a block's closed-form byte ceiling (40 bytes per edge) fails the
// lease once the coordinator has read the ceiling plus one byte, with an
// error naming the ceiling; with one worker and one attempt the run
// ends in ErrExhausted and merges nothing.
func TestRunLeaseBodyCeiling(t *testing.T) {
	want := testProduct(t).NumEdges()
	ceiling := leaseBytesPerEdge * want
	var sent atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		frame := make([]byte, wire.MaxFrameLen)
		for i := int64(0); sent.Load() < 100*ceiling; i++ {
			n := wire.PutFrame(frame, i, []exec.Edge{{V: 0, W: 1}})
			if _, err := w.Write(frame[:n]); err != nil {
				return // the coordinator hung up
			}
			sent.Add(int64(n))
		}
	}))
	t.Cleanup(ts.Close)
	var out bytes.Buffer
	_, err := Run(context.Background(), testSpec, &out, Options{
		Workers: []string{ts.URL}, Rows: 1, Cols: 1, MaxAttempts: 1,
	})
	if !errors.Is(err, ErrExhausted) || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte ceiling", ceiling)) {
		t.Fatalf("err = %v, want ErrExhausted naming the %d-byte ceiling", err, ceiling)
	}
	if sent.Load() <= ceiling {
		t.Fatalf("worker sent %d bytes, not past the %d-byte ceiling", sent.Load(), ceiling)
	}
	if out.Len() != 0 {
		t.Fatalf("an over-long lease reached the merged output: %d bytes", out.Len())
	}
}

// rewriteTrailers wraps a replica so that every lease response is
// replayed with edit applied to its trailers; edit sees the lease's
// block.  It models a worker that lies about or omits a trailer.
func rewriteTrailers(h http.Handler, edit func(row, col int, trailer http.Header)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/leases" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var blk struct{ Row, Col int }
		if err := json.Unmarshal(body, &blk); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		res := rec.Result()
		for k, v := range res.Header {
			w.Header()[k] = v // includes the Trailer announcement
		}
		w.WriteHeader(res.StatusCode)
		io.Copy(w, res.Body)
		edit(blk.Row, blk.Col, res.Trailer)
		for k, v := range res.Trailer {
			w.Header()[k] = v
		}
	})
}

// TestRunLyingFourSumTrailer: a worker adds 1 to block (0,0)'s Σ◊.
// Every block still streams the right edges, but the run must fail with
// an audit violation, audited or not.  On testSpec 4·□ = 11,664 and the
// lie makes 11,665, which divides by 4 to the same □ = 2,916: only the
// undivided comparison catches it.
func TestRunLyingFourSumTrailer(t *testing.T) {
	urls := newFleet(t, 2, func(i int, h http.Handler) http.Handler {
		return rewriteTrailers(h, func(row, col int, tr http.Header) {
			if row != 0 || col != 0 {
				return
			}
			sum, err := strconv.ParseInt(tr.Get(wire.TrailerFourSum), 10, 64)
			if err != nil {
				t.Errorf("honest lease (0,0) sent no Σ◊ to lie about: %v", err)
				return
			}
			tr.Set(wire.TrailerFourSum, strconv.FormatInt(sum+1, 10))
		})
	})
	for _, audited := range []bool{false, true} {
		var out bytes.Buffer
		res, err := Run(context.Background(), testSpec, &out, Options{
			Workers: urls, Rows: 2, Cols: 2, Audit: audited, RequestID: "test-lying-trailer",
		})
		if !errors.Is(err, audit.ErrViolation) {
			t.Fatalf("audit=%v: err = %v, want audit.ErrViolation", audited, err)
		}
		if audited && res.AuditViolations == 0 {
			t.Fatalf("audited run failed without an audit violation: %+v", res)
		}
	}
}

// TestRunMissingFourSumTrailer: a lease without the Σ◊ trailer fails, so
// a fleet whose every worker omits it exhausts the block's attempts.
func TestRunMissingFourSumTrailer(t *testing.T) {
	urls := newFleet(t, 2, func(i int, h http.Handler) http.Handler {
		return rewriteTrailers(h, func(_, _ int, tr http.Header) { tr.Del(wire.TrailerFourSum) })
	})
	var out bytes.Buffer
	_, err := Run(context.Background(), testSpec, &out, Options{
		Workers: urls, Rows: 1, Cols: 1, MaxAttempts: 2,
	})
	if !errors.Is(err, ErrExhausted) || !strings.Contains(err.Error(), wire.TrailerFourSum) {
		t.Fatalf("err = %v, want ErrExhausted over the missing %s trailer", err, wire.TrailerFourSum)
	}
}

// TestRunRejectsHalfGrid: a grid with one dimension set, or a negative
// one, is rejected with an error naming both fields instead of being
// silently auto-sized.
func TestRunRejectsHalfGrid(t *testing.T) {
	for _, g := range [][2]int{{4, 0}, {0, 3}, {-1, 0}, {0, -2}, {-2, -2}, {2, -1}} {
		var out bytes.Buffer
		_, err := Run(context.Background(), testSpec, &out, Options{Workers: []string{"http://127.0.0.1:1"}, Rows: g[0], Cols: g[1]})
		if err == nil || !strings.Contains(err.Error(), "Rows") || !strings.Contains(err.Error(), "Cols") {
			t.Errorf("Rows=%d Cols=%d: err = %v, want one naming Rows and Cols", g[0], g[1], err)
		}
	}
}

// TestPlanAutoSizing: the auto planner honors explicit dims, produces a
// grid covering at least one block, and caps cols at the last factor's
// edge count.
func TestPlanAutoSizing(t *testing.T) {
	p, err := testSpec.WithDefaults().Build()
	if err != nil {
		t.Fatal(err)
	}
	if r, c := plan(p, Options{Workers: []string{"a"}, Rows: 5, Cols: 7}); r != 5 || c != 7 {
		t.Fatalf("explicit grid ignored: %dx%d", r, c)
	}
	r, c := plan(p, Options{Workers: []string{"a", "b", "c"}, TargetBlockEdges: 1})
	if r < 1 || c < 1 {
		t.Fatalf("degenerate auto grid %dx%d", r, c)
	}
	if last := p.FactorB().G.NumEdges(); c > last {
		t.Fatalf("auto cols %d exceeds last-factor edges %d", c, last)
	}
	if int64(r*c) < 6 { // 2 blocks per worker minimum
		t.Fatalf("auto grid %dx%d smaller than 2 blocks per worker", r, c)
	}
	// A huge target still yields a valid grid.
	r, c = plan(p, Options{Workers: []string{"a"}, TargetBlockEdges: 1 << 40})
	if r < 1 || c < 1 {
		t.Fatalf("degenerate grid %dx%d for huge target", r, c)
	}
}

// discardWriter is io.Discard without the interface-conversion noise in
// the benchmark loop.
type discardWriter struct{}

func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
