package audit

import (
	"context"
	"fmt"
	"testing"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/graph"
)

// collectProductEdges materializes the edge stream once so batch tests
// can replay the identical sequence at chosen boundaries.
func collectProductEdges(t *testing.T, p *core.Product) []exec.Edge {
	t.Helper()
	var edges []exec.Edge
	p.EachEdge(func(v, w int) bool {
		edges = append(edges, exec.Edge{V: v, W: w})
		return true
	})
	return edges
}

// irregular cuts n items into pieces at irregular boundaries (coprime
// to any power-of-two sampling cadence) and calls take on each [lo, hi).
func irregular(n int, take func(lo, hi int)) {
	sizes := []int{3, 7, 1, 13, 64, 5}
	for i, lo := 0, 0; lo < n; i++ {
		hi := min(n, lo+sizes[i%len(sizes)])
		take(lo, hi)
		lo = hi
	}
}

// replayBatches feeds edges to s in irregular batches.
func replayBatches(t *testing.T, s exec.Sink, edges []exec.Edge) {
	t.Helper()
	irregular(len(edges), func(lo, hi int) {
		if err := s.EdgeBatch(edges[lo:hi]); err != nil {
			t.Fatal(err)
		}
	})
}

// replayRuns feeds edges to s as irregular runs over one stripe whose
// digits are the edges themselves, under prefix pair (0, 0).
func replayRuns(s *StreamAuditor, edges []exec.Edge) {
	stripe := &core.Stripe{Edges: make([]graph.Edge, len(edges))}
	for i, e := range edges {
		stripe.Edges[i] = graph.Edge{U: e.V, V: e.W}
	}
	irregular(len(edges), func(lo, hi int) {
		s.EdgeRun(core.Run{Stripe: stripe, Lo: lo, Hi: hi})
	})
}

// cadenceStream makes the sampling rule visible at stride k: it copies
// edges with every ordinal off the cadence (1-based, not a multiple of
// k) replaced by a foreign edge {-j, -j}, and ordinal 2k, when the
// stream has one, replaced by the foreign edge {-1, -2k}.  An auditor
// that samples exactly ordinals k, 2k, … checks n/k edges of it, flags
// one (none when n < 2k), and records {-1, -2k} as the first offender.
func cadenceStream(edges []exec.Edge, k int) []exec.Edge {
	out := append([]exec.Edge(nil), edges...)
	for j := 1; j <= len(out); j++ {
		if j%k != 0 {
			out[j-1] = exec.Edge{V: -j, W: -j}
		}
	}
	if 2*k <= len(out) {
		out[2*k-1] = exec.Edge{V: -1, W: -2 * k}
	}
	return out
}

// checkCadence requires an auditor fed cadenceStream(edges, k) of n
// edges to have counted n, checked n/k, and flagged exactly the planted
// sampled ordinal.
func checkCadence(t *testing.T, how string, s *StreamAuditor, n, k int) {
	t.Helper()
	var wantBad int64
	wantFirst := ""
	if 2*k <= n {
		wantBad = 1
		wantFirst = fmt.Sprintf("edge {-1,%d} is not a bipartition-crossing product edge", -2*k)
	}
	if s.edges.Load() != int64(n) || s.sampled.Load() != int64(n/k) {
		t.Fatalf("k=%d %s: counted %d edges, checked %d; want %d, %d",
			k, how, s.edges.Load(), s.sampled.Load(), n, n/k)
	}
	if s.bad.Load() != wantBad || s.firstBad != wantFirst {
		t.Fatalf("k=%d %s: flagged %d, first %q; want %d, %q", k, how, s.bad.Load(), s.firstBad, wantBad, wantFirst)
	}
}

// TestStreamAuditorBatchMatchesPerEdge: the batched auditor, and the
// run auditor, sample exactly the per-edge cadence, the stream's k-th,
// 2k-th, … edges, whatever the batch and run boundaries.  A clean
// stream, in irregular batches and as the run walk cut into pieces of
// at most three digits, counts n edges, checks n/k and flags none; the
// cadence stream, in irregular batches and runs, flags only its planted
// sampled edge and never a foreign edge off the cadence.
func TestStreamAuditorBatchMatchesPerEdge(t *testing.T) {
	for name, p := range products(t) {
		t.Run(name, func(t *testing.T) {
			edges := collectProductEdges(t, p)
			n := len(edges)
			for _, k := range []int{1, 5, 7, 1024} {
				batched := NewStream(p, k)
				replayBatches(t, batched, edges)
				runs := NewStream(p, k)
				if err := p.EachEdgeBlockRangeRunContext(context.Background(), 0, 1, 0, 1, 0, p.NumEdges(), nil, func(r core.Run) bool {
					for hi := r.Hi; r.Lo < hi; r.Lo = r.Hi {
						r.Hi = min(hi, r.Lo+3)
						runs.EdgeRun(r)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				for how, s := range map[string]*StreamAuditor{"batches": batched, "runs": runs} {
					if s.edges.Load() != int64(n) || s.sampled.Load() != int64(n/k) || s.bad.Load() != 0 {
						t.Fatalf("k=%d %s: counted %d edges, checked %d, %d bad; want %d, %d, 0",
							k, how, s.edges.Load(), s.sampled.Load(), s.bad.Load(), n, n/k)
					}
				}
				cadence := cadenceStream(edges, k)
				batched = NewStream(p, k)
				replayBatches(t, batched, cadence)
				checkCadence(t, "cadence batches", batched, n, k)
				runs = NewStream(p, k)
				replayRuns(runs, cadence)
				checkCadence(t, "cadence runs", runs, n, k)
			}
		})
	}
}

// TestStreamAuditorBatchCatchesForeignEdge: a fabricated edge planted
// at a sampled ordinal is flagged by batch and by run delivery alike.
func TestStreamAuditorBatchCatchesForeignEdge(t *testing.T) {
	p := products(t)["mode2"]
	edges := collectProductEdges(t, p)
	const sampleEvery = 4
	// Plant the foreigner at 1-based ordinal 2*sampleEvery (sampled).
	edges[2*sampleEvery-1] = exec.Edge{V: 0, W: 0}
	s := NewStream(p, sampleEvery)
	replayBatches(t, s, edges)
	if s.bad.Load() != 1 {
		t.Fatalf("flagged %d bad edges, want exactly 1", s.bad.Load())
	}
	r := NewStream(p, sampleEvery)
	replayRuns(r, edges)
	if r.bad.Load() != 1 || r.firstBad != s.firstBad {
		t.Fatalf("runs flagged %d bad edges, first %q; want 1, %q", r.bad.Load(), r.firstBad, s.firstBad)
	}
}

// TestShardAuditorBatchMatchesPerEdge: the per-shard child samples the
// same per-edge cadence over its shard's stream in irregular batches,
// and its Flush merges the tallies and the first offender into the
// parent.
func TestShardAuditorBatchMatchesPerEdge(t *testing.T) {
	p := products(t)["mode1"]
	edges := collectProductEdges(t, p)
	const k = 7
	n := len(edges)
	// viaShard feeds stream to a fresh parent's shard child and returns
	// the parent once the child has flushed.
	viaShard := func(stream []exec.Edge) *StreamAuditor {
		parent := NewStream(p, k)
		child := parent.ForShard()
		replayBatches(t, child, stream)
		if parent.edges.Load() != 0 || parent.sampled.Load() != 0 || parent.bad.Load() != 0 {
			t.Fatal("shard child reached the parent before Flush")
		}
		if err := exec.Finish(child); err != nil {
			t.Fatal(err)
		}
		return parent
	}
	clean := viaShard(edges)
	if clean.edges.Load() != int64(n) || clean.sampled.Load() != int64(n/k) || clean.bad.Load() != 0 {
		t.Fatalf("batch shard merged (edges=%d sampled=%d bad=%d), want (edges=%d sampled=%d bad=0)",
			clean.edges.Load(), clean.sampled.Load(), clean.bad.Load(), n, n/k)
	}
	checkCadence(t, "cadence shard", viaShard(cadenceStream(edges, k)), n, k)
}

// TestAuditCleanRunBatchSinks: the full auditor pipeline stays clean
// when the parallel stream hands its batches to the shard children.
func TestAuditCleanRunBatchSinks(t *testing.T) {
	for name, p := range products(t) {
		t.Run(name, func(t *testing.T) {
			a := New(p, Options{SampleEvery: 3})
			sinks := make([]exec.Sink, 4)
			err := p.StreamEdgesParallelContext(context.Background(), 4, func(shard int) exec.Sink {
				sinks[shard] = a.Stream().ForShard()
				return sinks[shard]
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sinks {
				if err := exec.Finish(s); err != nil {
					t.Fatal(err)
				}
			}
			if r := a.Finalize(); !r.OK() {
				t.Fatalf("batch-path audit reported violations: %v", r.Violations)
			}
		})
	}
}
