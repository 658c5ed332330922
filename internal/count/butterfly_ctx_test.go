package count

import (
	"context"
	"errors"
	"testing"

	"kronbip/internal/gen"
)

// The counters must honor the engine's cancellation contract: a dead
// context aborts with ctx.Err() and a live one changes nothing.

func TestVertexButterfliesParallelContextCancelled(t *testing.T) {
	g := gen.CompleteBipartite(20, 20).Graph
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VertexButterfliesParallelContext(ctx, g, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Serial fallback path (workers == 1) is cancellable too.
	if _, err := VertexButterfliesParallelContext(ctx, g, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial path err = %v, want context.Canceled", err)
	}
}

func TestParallelContextMatchesSerialUnderLiveContext(t *testing.T) {
	g := gen.CompleteBipartite(9, 13).Graph
	want, err := VertexButterflies(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VertexButterfliesParallelContext(context.Background(), g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: ctx-parallel %d, serial %d", v, got[v], want[v])
		}
	}
}

// TestParallelRepeatReusesPooledScratch runs the pooled-scratch path many
// times back to back; wrong pool hygiene (dirty accumulators) would skew
// the counts on later iterations.
func TestParallelRepeatReusesPooledScratch(t *testing.T) {
	g := gen.CompleteBipartite(8, 8).Graph
	want, err := VertexButterflies(g)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		got, err := VertexButterfliesParallel(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d vertex %d: %d, want %d", round, v, got[v], want[v])
			}
		}
	}
}
