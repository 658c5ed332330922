package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
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

// benchEncode feeds edges to a fresh text sink per iteration, batch by
// batch as the walker hands them over, and reports the cost per edge.
func benchEncode(b *testing.B, edges []exec.Edge, newSink func() *streamSink) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := newSink()
		for lo := 0; lo < len(edges); lo += exec.BatchLen {
			if err := sink.EdgeBatch(edges[lo:min(lo+exec.BatchLen, len(edges))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			b.Fatal(err)
		}
		if sink.count() != int64(len(edges)) {
			b.Fatalf("encoded %d edges, want %d", sink.count(), len(edges))
		}
	}
	b.ReportMetric(float64(len(edges)), "edges/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(edges)), "ns/edge")
}

// BenchmarkStreamWire_BinEncode times the bin encoding the way a job
// stream runs it: the run walk of the whole canonical order framed by a
// fresh binSink over a no-op writer per iteration.  The bin path never
// materializes edges, so the walk is part of the number; its runs are
// the product's prefix pairs, whose stripes the writer copies as delta
// bytes.  Hold it against BenchmarkStream_ShardedBatch.
func BenchmarkStreamWire_BinEncode(b *testing.B) {
	benchBinEncode(b, benchWireProduct(b))
}

// BenchmarkStreamWire_BinEncodeChain is BenchmarkStreamWire_BinEncode
// on perfbench's chain-bin spec (sf48x96x240 ⊗ crown4, selfloop, the
// default seed), a K = 2 chain: a 1×1 job stream of it through
// walkWindow into a no-op writer.  Its runs are the fused stripes of
// each term (walk.go), not crown4's 12- and 24-digit stripes.
func BenchmarkStreamWire_BinEncodeChain(b *testing.B) {
	p, err := spec.Spec{Factors: []string{"sf48x96x240", "crown4"}, Mode: "selfloop"}.WithDefaults().Build()
	if err != nil {
		b.Fatal(err)
	}
	benchBinEncode(b, p)
}

// benchBinEncode times p's whole canonical order as a bin job stream.
func benchBinEncode(b *testing.B, p *core.Product) {
	cuts := p.TermEdgeStarts()
	n := p.NumEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := newBinSink(nopFlushWriter{h: make(http.Header)}, cuts, 0, n)
		err := walkWindow(context.Background(), p, 0, 1, 0, 1, 0, n, sink, nil, nil)
		if ferr := sink.Flush(); err == nil {
			err = ferr
		}
		if err != nil || sink.count() != n {
			b.Fatalf("encoded %d edges, want %d: %v", sink.count(), n, err)
		}
		sink.release()
	}
	b.ReportMetric(float64(n), "edges/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/edge")
}

// BenchmarkStreamWire_TextEncode is the text rendering alone: the
// canonical edges pre-collected and fed to the ndjson or tsv stream sink
// over a no-op writer.
func BenchmarkStreamWire_TextEncode(b *testing.B) {
	edges := productEdges(benchWireProduct(b))
	for _, format := range []string{"ndjson", "tsv"} {
		b.Run(format, func(b *testing.B) {
			benchEncode(b, edges, func() *streamSink {
				return newStreamSink(nopFlushWriter{h: make(http.Header)}, format == "ndjson")
			})
		})
	}
}

// benchWireServer stands up a serve instance with one finished unicode
// job and returns the edges-stream URL prefix.
func benchWireServer(b *testing.B) (baseURL string) {
	b.Helper()
	s := New(Config{})
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
// edges endpoint does.
func benchWirePayload(b *testing.B, p *core.Product) []byte {
	b.Helper()
	rec := httptest.NewRecorder()
	sink := newBinSink(rec, p.TermEdgeStarts(), 0, p.NumEdges())
	defer sink.release()
	if err := walkWindow(context.Background(), p, 0, 1, 0, 1, 0, p.NumEdges(), sink, nil, nil); err != nil {
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

// BenchmarkStream_Lease serves POST /v1/leases in process for every
// block of a grid, the replica's half of a dist-gen run: the block walk
// with its Σ◊ priced per prefix pair, the bin encoding and the trailers,
// into a no-op writer.  The blocks' Σ◊ trailers must add up to 4·□.
// Table I runs on dist-gen's default 2×3 plan; chain-bin's spec
// (sf48x96x240 ⊗ crown4, selfloop) on 3×3, where crown4's 4-edge
// stripes make the per-prefix-pair work count.
func BenchmarkStream_Lease(b *testing.B) {
	for _, c := range []struct {
		name       string
		factors    []string
		rows, cols int
	}{
		{"table1_2x3", []string{"unicode"}, 2, 3},
		{"chain-bin_3x3", []string{"sf48x96x240", "crown4"}, 3, 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			sp := spec.Spec{Factors: c.factors, Mode: spec.ModeSelfLoop, Seed: spec.DefaultSeed}
			p, err := sp.Build()
			if err != nil {
				b.Fatal(err)
			}
			s := New(Config{})
			b.Cleanup(func() { _ = s.Shutdown(5 * time.Second) })
			h := s.Handler()
			factors, _ := json.Marshal(sp.Factors)
			var bodies []string
			for r := 0; r < c.rows; r++ {
				for col := 0; col < c.cols; col++ {
					bodies = append(bodies, fmt.Sprintf(`{"factors":%s,"mode":%q,"seed":%d,"row":%d,"rows":%d,"col":%d,"cols":%d}`,
						factors, sp.Mode, sp.Seed, r, c.rows, col, c.cols))
				}
			}
			lease := func() {
				var four int64
				for _, body := range bodies {
					w := nopFlushWriter{h: make(http.Header)}
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/leases", strings.NewReader(body)))
					sum, err := strconv.ParseInt(w.h.Get(wire.TrailerFourSum), 10, 64)
					if st := w.h.Get(TrailerStatus); st != "complete" || err != nil {
						b.Fatalf("%s: status %q, Σ◊ trailer %v", body, st, err)
					}
					four += sum
				}
				if want := 4 * p.GlobalFourCycles(); four != want {
					b.Fatalf("Σ◊ over the blocks %d, 4·□ %d", four, want)
				}
			}
			lease() // builds the server's cached product
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lease()
			}
			b.ReportMetric(float64(p.NumEdges()), "edges/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.NumEdges()), "ns/edge")
		})
	}
}
