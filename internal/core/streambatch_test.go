package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kronbip/internal/exec"
	"kronbip/internal/graph"
	"kronbip/internal/obs"
)

// collectBatchEdges drains one shard's batch stream — block (shard, 0)
// of nshards×1 — into a normalized edge list, copying out of the reused
// batch slice.
func collectBatchEdges(t *testing.T, p *Product, shard, nshards int) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	if err := p.EachEdgeBlockBatchContext(context.Background(), shard, nshards, 0, 1, func(batch []exec.Edge) bool {
		for _, e := range batch {
			v, w := e.V, e.W
			if v > w {
				v, w = w, v
			}
			out = append(out, graph.Edge{U: v, V: w})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEachEdgeShardBatchPartition: the union of all shards' batch
// streams equals the per-edge EachEdge stream exactly, for both modes
// and shard counts from 1 up past the row count (empty upper shards).
func TestEachEdgeShardBatchPartition(t *testing.T) {
	for name, p := range testProducts(t) {
		want := collectEdges(p)
		for _, nshards := range []int{1, 2, 3, 7, 1000} {
			var got []graph.Edge
			for s := 0; s < nshards; s++ {
				got = append(got, collectBatchEdges(t, p, s, nshards)...)
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

// TestEachEdgeShardBatchSizes: every batch but the last is full-sized
// whenever enough edges remain; none exceeds exec.BatchLen, none is
// empty.
func TestEachEdgeShardBatchSizes(t *testing.T) {
	p := bigStreamProduct(t)
	var sizes []int
	if err := p.EachEdgeBlockBatchContext(context.Background(), 0, 1, 0, 1, func(batch []exec.Edge) bool {
		sizes = append(sizes, len(batch))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, n := range sizes {
		if n == 0 || n > exec.BatchLen {
			t.Fatalf("batch %d has %d edges (want 1..%d)", i, n, exec.BatchLen)
		}
		// The hot loop flushes when fewer than 2 slots remain, so any
		// non-final batch holds at least BatchLen-1 edges.
		if i < len(sizes)-1 && n < exec.BatchLen-1 {
			t.Fatalf("non-final batch %d has only %d edges", i, n)
		}
		total += int64(n)
	}
	if total != p.NumEdges() {
		t.Fatalf("batches total %d edges, want %d", total, p.NumEdges())
	}
}

func TestEachEdgeShardBatchValidationAndEarlyStop(t *testing.T) {
	p := testProducts(t)["mode1"]
	ctx := context.Background()
	if err := p.EachEdgeBlockBatchContext(ctx, 0, 0, 0, 1, func([]exec.Edge) bool { return true }); err == nil {
		t.Fatal("accepted nshards=0")
	}
	if err := p.EachEdgeBlockBatchContext(ctx, 3, 3, 0, 1, func([]exec.Edge) bool { return true }); err == nil {
		t.Fatal("accepted shard out of range")
	}
	calls := 0
	if err := p.EachEdgeBlockBatchContext(ctx, 0, 1, 0, 1, func([]exec.Edge) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("yield ran %d times after returning false, want 1", calls)
	}
}

// TestEachEdgeShardBatchContextCancelAtBoundary cancels from inside a
// batch yield and checks the package contract: no batch is delivered
// after the cancellation is observed, and the error is ctx.Err().
func TestEachEdgeShardBatchContextCancelAtBoundary(t *testing.T) {
	p := bigStreamProduct(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	err := p.EachEdgeBlockBatchContext(ctx, 0, 1, 0, 1, func(batch []exec.Edge) bool {
		batches++
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if batches != 1 {
		t.Fatalf("%d batches delivered after cancellation in the first, want exactly 1", batches)
	}
}

func TestEachEdgeShardBatchContextPreCancelled(t *testing.T) {
	p := testProducts(t)["mode2"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.EachEdgeBlockBatchContext(ctx, 0, 2, 0, 1, func([]exec.Edge) bool {
		t.Fatal("batch yielded under a pre-cancelled context")
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEachEdgeBatchContextWholeStream: the whole-stream batch walk (the
// range [0, NumEdges)) covers the full edge set.
func TestEachEdgeBatchContextWholeStream(t *testing.T) {
	for name, p := range testProducts(t) {
		var got []graph.Edge
		if err := p.EachEdgeRangeBatchContext(context.Background(), 0, p.NumEdges(), func(batch []exec.Edge) bool {
			for _, e := range batch {
				v, w := e.V, e.W
				if v > w {
					v, w = w, v
				}
				got = append(got, graph.Edge{U: v, V: w})
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sortEdges(got)
		want := collectEdges(p)
		if len(got) != len(want) {
			t.Fatalf("%s: %d edges, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: differs at %d", name, i)
			}
		}
	}
}

// shardRecorder is a per-shard sink that normalizes and stores every
// edge; used from one goroutine (its own shard).
type shardRecorder struct {
	edges   []graph.Edge
	batches int
}

func (r *shardRecorder) EdgeBatch(batch []exec.Edge) error {
	r.batches++
	for _, e := range batch {
		v, w := e.V, e.W
		if v > w {
			v, w = w, v
		}
		r.edges = append(r.edges, graph.Edge{U: v, V: w})
	}
	return nil
}

// TestStreamEdgesParallelContextBatchPath: a sink takes the shard walk's
// batches and still yields exactly the EachEdge multiset, instrumented
// or not.
func TestStreamEdgesParallelContextBatchPath(t *testing.T) {
	for _, instrumented := range []bool{false, true} {
		if instrumented {
			obs.SetEnabled(true)
		}
		for name, p := range testProducts(t) {
			const nshards = 4
			recs := make([]shardRecorder, nshards)
			err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
				return &recs[s]
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []graph.Edge
			batches := 0
			for s := range recs {
				got = append(got, recs[s].edges...)
				batches += recs[s].batches
			}
			if batches == 0 {
				t.Fatalf("%s: no EdgeBatch calls — batch path not taken", name)
			}
			sortEdges(got)
			want := collectEdges(p)
			if len(got) != len(want) {
				t.Fatalf("%s instrumented=%v: %d edges, want %d", name, instrumented, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s instrumented=%v: differs at %d", name, instrumented, i)
				}
			}
		}
		if instrumented {
			obs.SetEnabled(false)
		}
	}
}

// failingBatchSink errors on the nth batch.
type failingBatchSink struct {
	n    int
	boom error
}

func (f *failingBatchSink) EdgeBatch([]exec.Edge) error {
	f.n--
	if f.n <= 0 {
		return f.boom
	}
	return nil
}

// TestStreamEdgesParallelContextBatchSinkError: a batch sink error
// aborts the stream and surfaces as-is, on both the plain and the
// instrumented shard paths.
func TestStreamEdgesParallelContextBatchSinkError(t *testing.T) {
	boom := fmt.Errorf("batch sink exploded")
	for _, instrumented := range []bool{false, true} {
		if instrumented {
			obs.SetEnabled(true)
		}
		p := bigStreamProduct(t)
		err := p.StreamEdgesParallelContext(context.Background(), 2, func(s int) exec.Sink {
			return &failingBatchSink{n: 2, boom: boom}
		})
		if !errors.Is(err, boom) {
			t.Fatalf("instrumented=%v: err = %v, want %v", instrumented, err, boom)
		}
		if instrumented {
			obs.SetEnabled(false)
		}
	}
}

// TestEmptyShards: with more shards than rows, the trailing shards are
// empty ranges.  Every path — the shard walk under a background and a
// cancellable context, and the parallel stream into a per-edge callback
// and a batch counter — must treat them as clean no-ops for both modes.
func TestEmptyShards(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, p := range testProducts(t) {
		nshards := p.numRows() + 3 // guarantees at least 3 empty shards
		perShard := make([]int, nshards)
		for s := 0; s < nshards; s++ {
			if err := blockEdges(p, s, nshards, 0, 1, func(_, _ int) bool {
				perShard[s]++
				return true
			}); err != nil {
				t.Fatalf("%s shard %d: %v", name, s, err)
			}
			if err := p.EachEdgeBlockBatchContext(ctx, s, nshards, 0, 1, func(batch []exec.Edge) bool {
				if len(batch) == 0 {
					t.Fatalf("%s shard %d: empty batch yielded", name, s)
				}
				return true
			}); err != nil {
				t.Fatalf("%s shard %d (batch context): %v", name, s, err)
			}
			// The closed form must agree that the shard is empty/non-empty.
			want, err := p.BlockEdgeCount(s, nshards, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if (want == 0) != (perShard[s] == 0) {
				t.Fatalf("%s shard %d: streamed %d edges, BlockEdgeCount says %d", name, s, perShard[s], want)
			}
		}
		empty := 0
		var total int
		for _, n := range perShard {
			if n == 0 {
				empty++
			}
			total += n
		}
		if empty < 3 {
			t.Fatalf("%s: only %d empty shards out of %d — test not exercising empty ranges", name, empty, nshards)
		}
		if int64(total) != p.NumEdges() {
			t.Fatalf("%s: shards total %d edges, want %d", name, total, p.NumEdges())
		}

		// The parallel engine over the same oversharded split, into a
		// per-edge callback and a batch counter both.
		var mu sync.Mutex
		perEdgeTotal := 0
		if err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
			return edgeFunc(func(v, w int) error {
				mu.Lock()
				perEdgeTotal++
				mu.Unlock()
				return nil
			})
		}); err != nil {
			t.Fatalf("%s parallel per-edge: %v", name, err)
		}
		if int64(perEdgeTotal) != p.NumEdges() {
			t.Fatalf("%s parallel per-edge: %d edges, want %d", name, perEdgeTotal, p.NumEdges())
		}
		var batchTotal exec.CountingSink
		if err := p.StreamEdgesParallelContext(context.Background(), nshards, func(s int) exec.Sink {
			return &batchTotal
		}); err != nil {
			t.Fatalf("%s parallel batch: %v", name, err)
		}
		if batchTotal.Count() != p.NumEdges() {
			t.Fatalf("%s parallel batch: %d edges, want %d", name, batchTotal.Count(), p.NumEdges())
		}
	}
}

// TestShardEdgeCountProperty: the closed-form shard count (BlockEdgeCount
// of a one-column block) equals the streamed count for arbitrary shard
// splits, including splits wider than the row count, on both modes.
func TestShardEdgeCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, p := range testProducts(t) {
		for trial := 0; trial < 30; trial++ {
			nshards := 1 + rng.Intn(3*p.numRows())
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
					t.Fatalf("%s shard %d/%d: streamed %d, closed form %d", name, s, nshards, n, want)
				}
				total += n
			}
			if total != p.NumEdges() {
				t.Fatalf("%s nshards=%d: total %d, want %d", name, nshards, total, p.NumEdges())
			}
		}
	}
}
