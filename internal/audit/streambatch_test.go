package audit

import (
	"context"
	"testing"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/graph"
)

// collectProductEdges materializes the edge stream once so batch tests
// can replay the identical sequence through both delivery vocabularies.
func collectProductEdges(t *testing.T, p *core.Product) []exec.Edge {
	t.Helper()
	var edges []exec.Edge
	p.EachEdge(func(v, w int) bool {
		edges = append(edges, exec.Edge{V: v, W: w})
		return true
	})
	return edges
}

// replayBatches slices edges at irregular boundaries (coprime to any
// power-of-two sampling cadence) and feeds them to bs.
func replayBatches(t *testing.T, bs exec.BatchSink, edges []exec.Edge) {
	t.Helper()
	sizes := []int{3, 7, 1, 13, 64, 5}
	for i, n := 0, 0; n < len(edges); i++ {
		take := sizes[i%len(sizes)]
		if take > len(edges)-n {
			take = len(edges) - n
		}
		if err := bs.EdgeBatch(edges[n : n+take]); err != nil {
			t.Fatal(err)
		}
		n += take
	}
}

// replayRuns feeds edges to s as runs: each edge (v, w) is the one
// digit of a stripe holding the edge (0, 0) under prefix pair (v, w).
func replayRuns(s *StreamAuditor, edges []exec.Edge) {
	origin := &core.Stripe{Edges: []graph.Edge{{U: 0, V: 0}}}
	for _, e := range edges {
		s.EdgeRun(core.Run{V: e.V, W: e.W, Stripe: origin, Lo: 0, Hi: 1})
	}
}

// TestStreamAuditorBatchMatchesPerEdge: the batched auditor, and the
// run auditor fed the run walk in pieces of at most three digits, must
// land on the identical edge count, sampled count, and verdicts as
// per-edge delivery of the same stream, regardless of batch and run
// boundaries.
func TestStreamAuditorBatchMatchesPerEdge(t *testing.T) {
	for name, p := range products(t) {
		t.Run(name, func(t *testing.T) {
			edges := collectProductEdges(t, p)
			for _, sampleEvery := range []int{1, 5, 1024} {
				perEdge := NewStream(p, sampleEvery)
				for _, e := range edges {
					if err := perEdge.Edge(e.V, e.W); err != nil {
						t.Fatal(err)
					}
				}
				batched := NewStream(p, sampleEvery)
				replayBatches(t, batched, edges)
				if batched.edges.Load() != perEdge.edges.Load() {
					t.Fatalf("sampleEvery=%d: batched counted %d edges, per-edge %d",
						sampleEvery, batched.edges.Load(), perEdge.edges.Load())
				}
				if batched.sampled.Load() != perEdge.sampled.Load() {
					t.Fatalf("sampleEvery=%d: batched sampled %d, per-edge %d",
						sampleEvery, batched.sampled.Load(), perEdge.sampled.Load())
				}
				if batched.bad.Load() != 0 {
					t.Fatalf("sampleEvery=%d: clean stream flagged %d bad edges", sampleEvery, batched.bad.Load())
				}
				runs := NewStream(p, sampleEvery)
				if err := p.EachEdgeBlockRangeRunContext(context.Background(), 0, 1, 0, 1, 0, p.NumEdges(), nil, func(r core.Run) bool {
					for hi := r.Hi; r.Lo < hi; r.Lo = r.Hi {
						r.Hi = min(hi, r.Lo+3)
						runs.EdgeRun(r)
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if runs.edges.Load() != perEdge.edges.Load() || runs.sampled.Load() != perEdge.sampled.Load() || runs.bad.Load() != 0 {
					t.Fatalf("sampleEvery=%d: runs counted %d edges, sampled %d, %d bad; per-edge %d, %d",
						sampleEvery, runs.edges.Load(), runs.sampled.Load(), runs.bad.Load(), perEdge.edges.Load(), perEdge.sampled.Load())
				}
			}
		})
	}
}

// TestStreamAuditorBatchCatchesForeignEdge: a fabricated edge planted
// at a sampled ordinal is flagged by batch and by run delivery exactly
// as by per-edge delivery.
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

// TestShardAuditorBatchMatchesPerEdge: same equivalence for the
// per-shard child, including the Flush merge into the parent.
func TestShardAuditorBatchMatchesPerEdge(t *testing.T) {
	p := products(t)["mode1"]
	edges := collectProductEdges(t, p)
	const sampleEvery = 7

	viaEdge := NewStream(p, sampleEvery)
	se := viaEdge.ForShard()
	for _, e := range edges {
		if err := se.Edge(e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	if err := exec.Finish(se); err != nil {
		t.Fatal(err)
	}

	viaBatch := NewStream(p, sampleEvery)
	sb := viaBatch.ForShard()
	replayBatches(t, sb.(exec.BatchSink), edges)
	if err := exec.Finish(sb); err != nil {
		t.Fatal(err)
	}

	if viaBatch.edges.Load() != viaEdge.edges.Load() || viaBatch.sampled.Load() != viaEdge.sampled.Load() {
		t.Fatalf("batch shard merged (edges=%d sampled=%d), per-edge (edges=%d sampled=%d)",
			viaBatch.edges.Load(), viaBatch.sampled.Load(), viaEdge.edges.Load(), viaEdge.sampled.Load())
	}
}

// TestAuditCleanRunBatchSinks: the full auditor pipeline stays clean
// when the parallel stream takes the batch path end to end (the shard
// children implement BatchSink, so StreamEdgesParallelContext routes
// batches through them automatically).
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
