package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
)

func collectEdges(p *Product) []graph.Edge {
	var out []graph.Edge
	p.EachEdge(func(v, w int) bool {
		if v > w {
			v, w = w, v
		}
		out = append(out, graph.Edge{U: v, V: w})
		return true
	})
	sortEdges(out)
	return out
}

// edgeFunc adapts a per-edge callback to an exec.Sink: it hands each
// batch over edge by edge, stopping at the first error.
type edgeFunc func(v, w int) error

func (f edgeFunc) EdgeBatch(batch []exec.Edge) error {
	for _, e := range batch {
		if err := f(e.V, e.W); err != nil {
			return err
		}
	}
	return nil
}

// heldSink holds its batches' edges until Flush hands them to deliver,
// so only a flushed sink's edges are ever delivered.
type heldSink struct {
	held    []exec.Edge
	deliver edgeFunc
}

func (h *heldSink) EdgeBatch(batch []exec.Edge) error {
	h.held = append(h.held, batch...)
	return nil
}

func (h *heldSink) Flush() error {
	err := h.deliver.EdgeBatch(h.held)
	h.held = h.held[:0]
	return err
}

func sortEdges(e []graph.Edge) {
	sort.Slice(e, func(a, b int) bool {
		if e[a].U != e[b].U {
			return e[a].U < e[b].U
		}
		return e[a].V < e[b].V
	})
}

func testProducts(t *testing.T) map[string]*Product {
	t.Helper()
	p1, err := New(gen.Complete(3), gen.Cycle(6), ModeNonBipartiteFactor)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(gen.Star(4), gen.Crown(3).Graph, ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Product{"mode1": p1, "mode2": p2}
}

func TestEachEdgeShardPartition(t *testing.T) {
	for name, p := range testProducts(t) {
		want := collectEdges(p)
		for _, nshards := range []int{1, 2, 3, 7, 1000} {
			var got []graph.Edge
			seen := map[graph.Edge]bool{}
			for s := 0; s < nshards; s++ {
				if err := blockEdges(p, s, nshards, 0, 1, func(v, w int) bool {
					if v > w {
						v, w = w, v
					}
					e := graph.Edge{U: v, V: w}
					if seen[e] {
						t.Fatalf("%s nshards=%d: edge %v in two shards", name, nshards, e)
					}
					seen[e] = true
					got = append(got, e)
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			sortEdges(got)
			if len(got) != len(want) {
				t.Fatalf("%s nshards=%d: %d edges, want %d", name, nshards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s nshards=%d: edge sets differ at %d", name, nshards, i)
				}
			}
		}
	}
}

func TestShardEdgeCount(t *testing.T) {
	for name, p := range testProducts(t) {
		for _, nshards := range []int{1, 2, 5} {
			var total int64
			for s := 0; s < nshards; s++ {
				want, err := p.BlockEdgeCount(s, nshards, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				var n int64
				if err := blockEdges(p, s, nshards, 0, 1, func(_, _ int) bool { n++; return true }); err != nil {
					t.Fatal(err)
				}
				if n != want {
					t.Fatalf("%s shard %d/%d: counted %d, BlockEdgeCount says %d", name, s, nshards, n, want)
				}
				total += n
			}
			if total != p.NumEdges() {
				t.Fatalf("%s nshards=%d: shards total %d, want %d", name, nshards, total, p.NumEdges())
			}
		}
	}
}

func TestEachEdgeShardValidation(t *testing.T) {
	p := testProducts(t)["mode1"]
	if err := blockEdges(p, 0, 0, 0, 1, func(_, _ int) bool { return true }); err == nil {
		t.Fatal("accepted nshards=0")
	}
	if err := blockEdges(p, 3, 3, 0, 1, func(_, _ int) bool { return true }); err == nil {
		t.Fatal("accepted shard out of range")
	}
	if _, err := p.BlockEdgeCount(-1, 2, 0, 1); err == nil {
		t.Fatal("BlockEdgeCount accepted negative shard")
	}
	if _, err := p.BlockEdgeCount(0, 0, 0, 1); err == nil {
		t.Fatal("BlockEdgeCount accepted nshards=0")
	}
}

func TestEachEdgeShardEarlyStop(t *testing.T) {
	p := testProducts(t)["mode2"]
	n := 0
	if err := blockEdges(p, 0, 1, 0, 1, func(_, _ int) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop streamed %d, want 3", n)
	}
}

func TestStreamEdgesParallel(t *testing.T) {
	for name, p := range testProducts(t) {
		const nshards = 4
		var mu sync.Mutex
		perShard := make([][]graph.Edge, nshards)
		err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
			return edgeFunc(func(v, w int) error {
				if v > w {
					v, w = w, v
				}
				mu.Lock()
				perShard[s] = append(perShard[s], graph.Edge{U: v, V: w})
				mu.Unlock()
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []graph.Edge
		for _, s := range perShard {
			got = append(got, s...)
		}
		sortEdges(got)
		want := collectEdges(p)
		if len(got) != len(want) {
			t.Fatalf("%s: parallel stream %d edges, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: parallel stream differs at %d", name, i)
			}
		}
	}
}

// TestEachEdgeShardContextPartitionProperty is the randomized version of
// the exactness property: for arbitrary nshards, the union of all shards
// under a live context equals the EachEdge stream exactly, with no edge in
// two shards.
func TestEachEdgeShardContextPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, p := range testProducts(t) {
		want := collectEdges(p)
		for trial := 0; trial < 20; trial++ {
			nshards := 1 + rng.Intn(2*p.numRows())
			var got []graph.Edge
			seen := map[graph.Edge]bool{}
			for s := 0; s < nshards; s++ {
				if err := blockEdges(p, s, nshards, 0, 1, func(v, w int) bool {
					if v > w {
						v, w = w, v
					}
					e := graph.Edge{U: v, V: w}
					if seen[e] {
						t.Fatalf("%s nshards=%d: edge %v in two shards", name, nshards, e)
					}
					seen[e] = true
					got = append(got, e)
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			sortEdges(got)
			if len(got) != len(want) {
				t.Fatalf("%s nshards=%d: %d edges, want %d", name, nshards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s nshards=%d: edge sets differ at %d", name, nshards, i)
				}
			}
		}
	}
}

// bigStreamProduct builds a product whose stream spans several batches,
// so a cancellation inside the first batch is observed mid-stream.
func bigStreamProduct(t *testing.T) *Product {
	t.Helper()
	p, err := New(gen.Star(4), gen.CompleteBipartite(40, 40).Graph, ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEachEdgeShardContextCancelMidStream cancels from inside a per-edge
// shard sink and checks the contract: the shard stops after the batch in
// flight, returns ctx.Err(), and never emits an edge twice.
func TestEachEdgeShardContextCancelMidStream(t *testing.T) {
	p := bigStreamProduct(t)
	const cancelAt = 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	seen := map[graph.Edge]bool{}
	err := p.StreamEdgesParallelContext(ctx, 1, func(int) exec.Sink {
		return edgeFunc(func(v, w int) error {
			if v > w {
				v, w = w, v
			}
			e := graph.Edge{U: v, V: w}
			if seen[e] {
				return fmt.Errorf("edge %v emitted twice", e)
			}
			seen[e] = true
			emitted++
			if emitted == cancelAt {
				cancel()
			}
			return nil
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int64(emitted) >= p.NumEdges() {
		t.Fatal("cancellation did not stop the stream early")
	}
	if emitted > cancelAt+exec.BatchLen {
		t.Fatalf("stream emitted %d edges after cancellation at %d (batch %d): not prompt",
			emitted-cancelAt, cancelAt, exec.BatchLen)
	}
}

// TestEachEdgeShardContextPreCancelled: a dead context yields no edges at
// all.
func TestEachEdgeShardContextPreCancelled(t *testing.T) {
	p := testProducts(t)["mode1"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.EachEdgeBlockBatchContext(ctx, 0, 2, 0, 1, func([]exec.Edge) bool {
		t.Fatal("yield ran under a pre-cancelled context")
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamEdgesParallelContextCancel cancels mid-generation from a sink
// and requires the parallel stream to surface ctx.Err().
func TestStreamEdgesParallelContextCancel(t *testing.T) {
	p := bigStreamProduct(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var total atomic.Int64
	err := p.StreamEdgesParallelContext(ctx, 4, func(s int) exec.Sink {
		return edgeFunc(func(v, w int) error {
			if total.Add(1) == 25 {
				cancel()
			}
			return nil
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if total.Load() >= p.NumEdges() {
		t.Fatal("cancellation did not abort the parallel stream early")
	}
}

// TestStreamEdgesParallelContextDeadline: an already-expired deadline
// aborts before any edge is generated.
func TestStreamEdgesParallelContextDeadline(t *testing.T) {
	p := testProducts(t)["mode2"]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	err := p.StreamEdgesParallelContext(ctx, 3, func(s int) exec.Sink {
		return edgeFunc(func(v, w int) error {
			t.Error("edge generated after deadline")
			return nil
		})
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamEdgesParallelContextFlushes verifies shard sinks are flushed
// (exec.Finish) on normal completion.
func TestStreamEdgesParallelContextFlushes(t *testing.T) {
	p := testProducts(t)["mode2"]
	const nshards = 3
	var mu sync.Mutex
	delivered := 0
	sinks := make([]exec.Sink, nshards)
	for s := range sinks {
		sinks[s] = &heldSink{deliver: func(v, w int) error {
			mu.Lock()
			delivered++
			mu.Unlock()
			return nil
		}}
	}
	if err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
		return sinks[s]
	}); err != nil {
		t.Fatal(err)
	}
	if int64(delivered) != p.NumEdges() {
		t.Fatalf("delivered %d edges after flush, want %d", delivered, p.NumEdges())
	}
}

func TestStreamEdgesParallelSinkError(t *testing.T) {
	p := testProducts(t)["mode1"]
	boom := fmt.Errorf("sink exploded")
	err := p.StreamEdgesParallelContext(context.Background(), 3, func(s int) exec.Sink {
		n := 0
		return edgeFunc(func(_, _ int) error {
			n++
			if s == 1 && n == 5 {
				return boom
			}
			return nil
		})
	})
	if err != boom {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if err := p.StreamEdgesParallelContext(context.Background(), 0, nil); err == nil {
		t.Fatal("accepted nshards=0")
	}
}
