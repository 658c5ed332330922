// Package count_test (external) so the degree-sink tests can stream a
// real core.Product without an import cycle (core imports count).
package count_test

import (
	"context"
	"testing"

	"kronbip/internal/core"
	"kronbip/internal/count"
	"kronbip/internal/exec"
	"kronbip/internal/gen"
)

func degreeProduct(t *testing.T) *core.Product {
	t.Helper()
	p, err := core.New(gen.Star(4), gen.Crown(3).Graph, core.ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDegreeSinkRejectsOutOfRange(t *testing.T) {
	d := count.NewDegreeSink(4)
	if err := d.Edge(0, 4); err == nil {
		t.Fatal("accepted endpoint == n")
	}
	if err := d.Edge(-1, 2); err == nil {
		t.Fatal("accepted negative endpoint")
	}
	if err := d.EdgeBatch([]exec.Edge{{V: 1, W: 2}, {V: 3, W: 9}}); err == nil {
		t.Fatal("batch accepted out-of-range endpoint")
	}
	if err := count.NewDegreeSink(4).Merge(count.NewDegreeSink(5)); err == nil {
		t.Fatal("merged sinks over different vertex ranges")
	}
}

// TestDegreeSinkMatchesClosedForm streams the product in parallel with
// one batch-capable degree sink per shard, merges the shard tallies,
// and requires exact agreement with the closed-form degrees — the
// ground-truth check DegreeSink exists for.
func TestDegreeSinkMatchesClosedForm(t *testing.T) {
	p := degreeProduct(t)
	const nshards = 3
	sinks := make([]*count.DegreeSink, nshards)
	for s := range sinks {
		sinks[s] = count.NewDegreeSink(p.N())
	}
	if err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
		return sinks[s]
	}); err != nil {
		t.Fatal(err)
	}
	total := count.NewDegreeSink(p.N())
	for _, s := range sinks {
		if err := total.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	for v, got := range total.Degrees() {
		if want := p.DegreeAt(v); got != want {
			t.Fatalf("vertex %d: streamed degree %d, closed form %d", v, got, want)
		}
	}
}

// TestDegreeSinkBatchMatchesPerEdge: both delivery vocabularies
// produce the identical tally.
func TestDegreeSinkBatchMatchesPerEdge(t *testing.T) {
	p := degreeProduct(t)
	perEdge := count.NewDegreeSink(p.N())
	p.EachEdge(func(v, w int) bool {
		if err := perEdge.Edge(v, w); err != nil {
			t.Fatal(err)
		}
		return true
	})
	batched := count.NewDegreeSink(p.N())
	if err := p.EachEdgeRangeBatchContext(context.Background(), 0, p.NumEdges(), func(batch []exec.Edge) bool {
		if err := batched.EdgeBatch(batch); err != nil {
			t.Fatal(err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	a, b := perEdge.Degrees(), batched.Degrees()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d: per-edge degree %d, batched %d", v, a[v], b[v])
		}
	}
}
