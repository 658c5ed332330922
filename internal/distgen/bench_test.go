package distgen

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// BenchmarkDistGenMergeBin is the coordinator's side of an audited bin
// run, the path perfbench's distgen-audit workload takes: the 4×2 grid
// of BenchmarkDistGenMerge over Table I's spec, each block's lease
// payload (leased once, before the clock starts, from an in-process
// replica) decoded by parseEdges into its audit child, then accepted
// and merged.  No network inside the loop.
func BenchmarkDistGenMergeBin(b *testing.B) {
	sp := spec.Spec{Factors: []string{"unicode"}, Mode: "selfloop"}.WithDefaults()
	p, err := sp.Build()
	if err != nil {
		b.Fatal(err)
	}
	const rows, cols = 4, 2
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(5 * time.Second)
	})
	var payloads [][]byte
	var totalBytes int64
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			body := fmt.Sprintf(`{"factors":%s,"mode":%q,"seed":%d,"row":%d,"rows":%d,"col":%d,"cols":%d,"format":"bin"}`,
				factorsJSON(sp.Factors), sp.Mode, sp.Seed, r, rows, c, cols)
			res, err := http.Post(ts.URL+"/v1/leases", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			payload, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil || res.StatusCode != http.StatusOK {
				b.Fatalf("lease (%d,%d): status %d, err %v", r, c, res.StatusCode, err)
			}
			payloads = append(payloads, payload)
			totalBytes += int64(len(payload))
		}
	}
	opts, err := Options{Workers: []string{"bench"}, Format: "bin", Audit: true, MaxAttempts: 1}.withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(totalBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := newCoordinator(p, sp, discardWriter{}, rows, cols, opts)
		if err != nil {
			b.Fatal(err)
		}
		w := c.workers[0]
		for bi, payload := range payloads {
			auditCh := c.auditStream.ForShard()
			n, err := parseEdges(payload, "bin", auditCh)
			if err != nil {
				b.Fatal(err)
			}
			if want := c.blocks[bi].want; n != want {
				b.Fatalf("block %d parsed %d edges, want %d", bi, n, want)
			}
			c.complete(w, bi, false, &leaseResult{buf: payload, edges: n, auditCh: auditCh}, nil)
		}
		if c.merged != p.NumEdges() {
			b.Fatalf("merged %d, want %d", c.merged, p.NumEdges())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.NumEdges()), "ns/edge")
}
