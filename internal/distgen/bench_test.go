package distgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// leasePayloads leases every block of a rows×cols grid of sp once from
// an in-process replica, before the benchmark clock starts, and returns
// the built product, the bin payloads in block order and their total
// size.
func leasePayloads(tb testing.TB, sp spec.Spec, rows, cols int) (*core.Product, [][]byte, int64) {
	tb.Helper()
	sp = sp.WithDefaults()
	p, err := sp.Build()
	if err != nil {
		tb.Fatal(err)
	}
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Shutdown(5 * time.Second)
	}()
	var payloads [][]byte
	var total int64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			body := fmt.Sprintf(`{"factors":%s,"mode":%q,"seed":%d,"row":%d,"rows":%d,"col":%d,"cols":%d,"format":"bin"}`,
				factorsJSON(sp.Factors), sp.Mode, sp.Seed, r, rows, c, cols)
			res, err := http.Post(ts.URL+"/v1/leases", "application/json", strings.NewReader(body))
			if err != nil {
				tb.Fatal(err)
			}
			payload, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil || res.StatusCode != http.StatusOK {
				tb.Fatalf("lease (%d,%d): status %d, err %v", r, c, res.StatusCode, err)
			}
			payloads = append(payloads, payload)
			total += int64(len(payload))
		}
	}
	return p, payloads, total
}

// benchMerge runs the coordinator's side of a run over pre-leased
// payloads: each block encoded by coordinator.expect (feeding the
// audit's stream checks when opts.Audit, rendering the block when the
// output is text), its payload checked from a bytes.Reader against that
// encoding by coordinator.check, then accepted and merged.  No network
// inside the loop.
func benchMerge(b *testing.B, sp spec.Spec, opts Options) {
	const rows, cols = 4, 2
	p, payloads, total := leasePayloads(b, sp, rows, cols)
	opts.Workers, opts.MaxAttempts = []string{"bench"}, 1
	opts, err := opts.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	trailer := completeTrailer()
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := newCoordinator(p, sp.WithDefaults(), discardWriter{}, rows, cols, opts)
		if err != nil {
			b.Fatal(err)
		}
		w := c.workers[0]
		for bi, payload := range payloads {
			blk := c.blocks[bi]
			blk.inflight++ // issued, as next issues it
			x, err := c.expect(context.Background(), blk)
			if err != nil {
				b.Fatalf("block %d: %v", bi, err)
			}
			res, err := c.check(x, 0, bytes.NewReader(payload), trailer)
			if err != nil {
				b.Fatalf("block %d: %v", bi, err)
			}
			c.complete(w, bi, false, res, nil)
		}
		if c.merged != p.NumEdges() {
			b.Fatalf("merged %d, want %d", c.merged, p.NumEdges())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.NumEdges()), "ns/edge")
}

// BenchmarkDistGenMerge is the coordinator's per-byte cost on top of
// worker generation for the default tsv output: the bin lease payloads
// of a 4×2 grid of crown4⊗path3 compared with the coordinator's own
// encoding, each block rendered as TSV by the walk that encoded it,
// then merged in order.
func BenchmarkDistGenMerge(b *testing.B) {
	benchMerge(b, spec.Spec{Factors: []string{"crown4", "path3"}, Mode: "selfloop"}, Options{Format: "tsv"})
}

// BenchmarkDistGenMergeBin is the coordinator's side of an audited bin
// run, the path perfbench's distgen-audit workload takes: the same 4×2
// grid over Table I's spec, each block encoded (feeding the audit's
// stream checks), its payload compared with that encoding and merged
// as leased.
func BenchmarkDistGenMergeBin(b *testing.B) {
	benchMerge(b, spec.Spec{Factors: []string{"unicode"}, Mode: "selfloop"}, Options{Format: "bin", Audit: true})
}

// BenchmarkDistGenRun is one whole dist-gen run the way perfbench's
// distgen-audit workload makes it: an audited bin Run of Table I's spec
// over two in-process serve replicas on the default 2×3 plan — lease
// transfer, encode, compare, audit and ordered merge — after one untimed
// run that warms the replicas' spec caches.  It calls the package's
// public API only, so the same function times any commit.
func BenchmarkDistGenRun(b *testing.B) {
	sp := spec.Spec{Factors: []string{"unicode"}, Mode: "selfloop"}
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(func() {
			ts.Close()
			_ = s.Shutdown(5 * time.Second)
		})
		urls = append(urls, ts.URL)
	}
	opts := Options{Workers: urls, Format: "bin", Audit: true}
	run := func() *Result {
		res, err := Run(context.Background(), sp, discardWriter{}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != 2 || res.Cols != 3 || res.AuditViolations != 0 {
			b.Fatalf("run: %dx%d grid, %d audit violations; want a clean 2x3 run", res.Rows, res.Cols, res.AuditViolations)
		}
		return res
	}
	edges := run().Edges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
}
