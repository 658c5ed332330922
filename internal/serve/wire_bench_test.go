package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/spec"
)

// benchWireProduct builds the repo-wide benchmark product (the paper's
// unicode network squared, ~4.2M edges) — the same workload the
// BenchmarkStream_* family in the repo root measures, so the wire
// numbers are directly comparable to the in-memory stream baselines.
func benchWireProduct(b *testing.B) *core.Product {
	b.Helper()
	p, err := spec.Spec{Factors: []string{"unicode"}}.WithDefaults().Build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// nopFlushWriter is the cheapest http.ResponseWriter that still
// satisfies the encoder's flusher probe — encode cost only, no I/O.
type nopFlushWriter struct{ h http.Header }

func (w nopFlushWriter) Header() http.Header         { return w.h }
func (w nopFlushWriter) WriteHeader(int)             {}
func (w nopFlushWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopFlushWriter) Flush()                      {}

// BenchmarkStreamWire_BinEncode isolates the binary encoder: canonical
// edges pre-collected, batches fed straight to a binSink over a no-op
// writer.  This is the per-edge cost the format adds on top of
// generation — the number to hold against BenchmarkStream_ShardedBatch.
func BenchmarkStreamWire_BinEncode(b *testing.B) {
	p := benchWireProduct(b)
	edges := make([]exec.Edge, 0, p.NumEdges())
	p.EachEdge(func(v, w int) bool {
		edges = append(edges, exec.Edge{V: v, W: w})
		return true
	})
	cuts := p.TermEdgeStarts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := newBinSink(nopFlushWriter{h: make(http.Header)}, cuts, 0)
		for lo := 0; lo < len(edges); lo += exec.BatchLen {
			hi := lo + exec.BatchLen
			if hi > len(edges) {
				hi = len(edges)
			}
			if err := sink.EdgeBatch(edges[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			b.Fatal(err)
		}
		if sink.count() != p.NumEdges() {
			b.Fatalf("encoded %d edges, want %d", sink.count(), p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// benchWireServer stands up a serve instance with one finished unicode
// job and returns the edges-stream URL prefix.
func benchWireServer(b *testing.B) (baseURL string) {
	b.Helper()
	s := New(Config{JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(5 * time.Second)
	})
	res, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"factor":"unicode","mode":"selfloop"}`))
	if err != nil {
		b.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	res.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			b.Fatal(err)
		}
		var cur JobStatus
		if err := json.NewDecoder(r.Body).Decode(&cur); err != nil {
			b.Fatal(err)
		}
		r.Body.Close()
		if cur.State == "done" {
			break
		}
		if cur.State == "failed" || time.Now().After(deadline) {
			b.Fatalf("bench job state %q", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return ts.URL + "/v1/jobs/" + st.ID + "/edges"
}

// benchWireSocket streams the job's edges once per iteration over a real
// HTTP connection, draining the body to io.Discard.
func benchWireSocket(b *testing.B, url string) {
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if st := res.Trailer.Get(TrailerStatus); st != "complete" {
			b.Fatalf("trailer status %q", st)
		}
		bytes = n
	}
	b.SetBytes(bytes)
}

// BenchmarkStreamWire_BinSocket is the tentpole acceptance number: the
// full GET /edges?format=bin path — generation, binary framing, HTTP —
// which must land within ~2x of the in-memory batched stream baseline
// (BenchmarkStream_ShardedBatch); benchcheck gates the family at 1.2x
// against the recorded baseline.
func BenchmarkStreamWire_BinSocket(b *testing.B) {
	url := benchWireServer(b)
	benchWireSocket(b, url+"?format=bin")
}

// BenchmarkStreamWire_NDJSONSocket is the text-format comparator over
// the identical socket path — the rendering cost the binary format is
// buying back.
func BenchmarkStreamWire_NDJSONSocket(b *testing.B) {
	url := benchWireServer(b)
	benchWireSocket(b, url+"?format=ndjson")
}

// benchWirePayload encodes p's whole canonical stream the way the
// edges endpoint does, batch by batch.
func benchWirePayload(b *testing.B, p *core.Product) []byte {
	b.Helper()
	rec := httptest.NewRecorder()
	sink := newBinSink(rec, p.TermEdgeStarts(), 0)
	if err := p.EachEdgeRangeBatchContext(context.Background(), 0, p.NumEdges(), func(batch []exec.Edge) bool {
		if err := sink.EdgeBatch(batch); err != nil {
			b.Fatal(err)
		}
		return true
	}); err != nil {
		b.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		b.Fatal(err)
	}
	return rec.Body.Bytes()
}

// BenchmarkStreamWire_Decode measures the consumer side: DecodeWire over
// a fully-encoded canonical stream, yielding every edge.  The unicode
// product's delta pairs are mostly multi-byte (B/edge reports the
// payload's density).
func BenchmarkStreamWire_Decode(b *testing.B) {
	p := benchWireProduct(b)
	payload := benchWirePayload(b, p)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		edges, _, trailing, err := DecodeWire(payload, 0, func(v, w int) { n++ })
		if err != nil || trailing != 0 {
			b.Fatalf("decode: edges=%d trailing=%d err=%v", edges, trailing, err)
		}
		if n != p.NumEdges() {
			b.Fatalf("decoded %d edges, want %d", n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
	b.ReportMetric(float64(len(payload))/float64(p.NumEdges()), "B/edge")
}

// BenchmarkStreamWire_DecodeChain is the client side of perfbench's
// chain-bin workload: its spec (sf48x96x240 ⊗ crown4, selfloop), whose
// delta pairs are almost all one byte each, decoded the way its
// receiver does — 256 KiB reads, DecodeWire with a per-edge append, the
// incomplete last frame carried into the next read.
func BenchmarkStreamWire_DecodeChain(b *testing.B) {
	p, err := spec.Spec{Factors: []string{"sf48x96x240", "crown4"}, Mode: "selfloop"}.WithDefaults().Build()
	if err != nil {
		b.Fatal(err)
	}
	payload := benchWirePayload(b, p)
	const chunk = 256 << 10
	buf := make([]byte, chunk)
	got := make([]exec.Edge, 0, chunk/2) // a frame spends at least two bytes per edge
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n, next int64
		carry := 0
		for rest := payload; ; {
			m := copy(buf[carry:], rest)
			rest = rest[m:]
			data := buf[:carry+m]
			got = got[:0]
			_, after, trailing, err := DecodeWire(data, next, func(v, w int) {
				got = append(got, exec.Edge{V: v, W: w})
			})
			if err != nil {
				b.Fatal(err)
			}
			n += int64(len(got))
			next = after
			carry = copy(buf, data[len(data)-trailing:])
			if len(rest) == 0 {
				break
			}
		}
		if carry != 0 || n != p.NumEdges() {
			b.Fatalf("decoded %d edges with %d bytes left, want %d", n, carry, p.NumEdges())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.NumEdges()), "ns/edge")
	b.ReportMetric(float64(len(payload))/float64(p.NumEdges()), "B/edge")
}
