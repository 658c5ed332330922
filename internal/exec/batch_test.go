package exec

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// recordBatchSink remembers every edge and the batch sizes it arrived
// in; it speaks only BatchSink plus Flush.
type recordBatchSink struct {
	edges   []Edge
	batches []int
	flushed bool
	failAt  int // fail on the batch containing the failAt-th edge (1-based); 0 = never
}

func (r *recordBatchSink) EdgeBatch(batch []Edge) error {
	if r.failAt > 0 && len(r.edges)+len(batch) >= r.failAt {
		return errors.New("batch sink failure")
	}
	r.edges = append(r.edges, batch...)
	r.batches = append(r.batches, len(batch))
	return nil
}

func (r *recordBatchSink) Edge(v, w int) error { return r.EdgeBatch([]Edge{{v, w}}) }

func (r *recordBatchSink) Flush() error {
	r.flushed = true
	return nil
}

func batchOf(n, base int) []Edge {
	b := make([]Edge, n)
	for i := range b {
		b[i] = Edge{base + i, base + i + 1}
	}
	return b
}

func TestEdgeBufPool(t *testing.T) {
	b := GetEdgeBuf()
	if len(*b) != 0 || cap(*b) < BatchLen {
		t.Fatalf("fresh buffer len=%d cap=%d, want empty with cap >= %d", len(*b), cap(*b), BatchLen)
	}
	*b = append(*b, Edge{1, 2})
	PutEdgeBuf(b)
	// Nil and undersized buffers must be rejected, not pooled.
	PutEdgeBuf(nil)
	small := make([]Edge, 0, 4)
	PutEdgeBuf(&small)
	if got := GetEdgeBuf(); len(*got) != 0 || cap(*got) < BatchLen {
		t.Fatalf("recycled buffer len=%d cap=%d, want empty with cap >= %d", len(*got), cap(*got), BatchLen)
	}
}

func TestDeliverBatchPrefersBatchSink(t *testing.T) {
	var r recordBatchSink
	if err := DeliverBatch(&r, batchOf(5, 0)); err != nil {
		t.Fatal(err)
	}
	if len(r.batches) != 1 || r.batches[0] != 5 {
		t.Fatalf("batches = %v, want one wholesale delivery of 5", r.batches)
	}
}

func TestDeliverBatchFallsBackPerEdge(t *testing.T) {
	var r recordSink // speaks only Edge
	if err := DeliverBatch(&r, batchOf(4, 10)); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{10, 11}, {11, 12}, {12, 13}, {13, 14}}
	if len(r.edges) != len(want) {
		t.Fatalf("delivered %d edges, want %d", len(r.edges), len(want))
	}
	for i, e := range want {
		if r.edges[i] != e {
			t.Fatalf("edge %d = %v, want %v (order not preserved)", i, r.edges[i], e)
		}
	}
	// Per-edge fallback stops at the first error.
	fail := recordSink{failAt: 2}
	if err := DeliverBatch(&fail, batchOf(4, 0)); err == nil {
		t.Fatal("sink error not surfaced")
	}
	if len(fail.edges) != 1 {
		t.Fatalf("delivered %d edges past the failure, want 1", len(fail.edges))
	}
}

func TestCountingSinkEdgeBatch(t *testing.T) {
	var c CountingSink
	if err := c.EdgeBatch(batchOf(7, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Edge(1, 2); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 8 {
		t.Fatalf("count = %d, want 8", c.Count())
	}
	if err := NullSink.EdgeBatch(NullSink{}, batchOf(3, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSinkEdgeBatchMixedMembers(t *testing.T) {
	var batch recordBatchSink
	var perEdge recordSink
	m := MultiSink{&batch, &perEdge}
	if err := m.EdgeBatch(batchOf(6, 0)); err != nil {
		t.Fatal(err)
	}
	if len(batch.batches) != 1 || batch.batches[0] != 6 {
		t.Fatalf("batch member got %v, want one delivery of 6", batch.batches)
	}
	if len(perEdge.edges) != 6 {
		t.Fatalf("per-edge member got %d edges, want 6", len(perEdge.edges))
	}
}

func TestLockedSinkEdgeBatchConcurrent(t *testing.T) {
	var r recordBatchSink
	l := NewLockedSink(&r)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 20
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				if err := l.EdgeBatch(batchOf(3, i*1000+j)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(r.edges) != writers*perWriter*3 {
		t.Fatalf("recorded %d edges, want %d", len(r.edges), writers*perWriter*3)
	}
}

func TestBufferedSinkEdgeBatchChunksAndFlushes(t *testing.T) {
	var r recordBatchSink
	b := NewBufferedSink(&r)
	// A batch larger than the buffer capacity must re-emerge in
	// capacity-aligned chunks plus a flushed tail, preserving order.
	big := batchOf(bufferedSinkCap+100, 0)
	if err := b.EdgeBatch(big); err != nil {
		t.Fatal(err)
	}
	if len(r.batches) != 1 || r.batches[0] != bufferedSinkCap {
		t.Fatalf("pre-flush batches = %v, want one full buffer of %d", r.batches, bufferedSinkCap)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if len(r.edges) != len(big) {
		t.Fatalf("delivered %d edges, want %d", len(r.edges), len(big))
	}
	for i, e := range big {
		if r.edges[i] != e {
			t.Fatalf("edge %d = %v, want %v", i, r.edges[i], e)
		}
	}
	if !r.flushed {
		t.Fatal("inner sink not flushed")
	}
}

func TestTSVSinkEdgeBatchMatchesPerEdge(t *testing.T) {
	batch := batchOf(2000, 100000) // more than one RenderChunk
	var viaBatch, viaEdge bytes.Buffer
	tb := NewTSVSink(&viaBatch)
	if err := tb.EdgeBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	te := NewTSVSink(&viaEdge)
	for _, e := range batch {
		if err := te.Edge(e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	if err := te.Flush(); err != nil {
		t.Fatal(err)
	}
	if viaBatch.String() != viaEdge.String() {
		t.Fatal("batch and per-edge TSV renderings differ")
	}
	if lines := strings.Count(viaBatch.String(), "\n"); lines != len(batch) {
		t.Fatalf("%d lines, want %d", lines, len(batch))
	}
}

func TestFanInDeliversEverythingOnce(t *testing.T) {
	var r recordBatchSink
	f := NewFanIn(&r, 0)
	const shards, perShard = 6, BatchLen + 37 // forces full sends plus a partial tail
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sink := f.ForShard()
			for i := 0; i < perShard; i++ {
				if err := sink.Edge(s, i); err != nil {
					t.Error(err)
					return
				}
			}
			if err := Finish(sink); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(r.edges) != shards*perShard {
		t.Fatalf("delivered %d edges, want %d", len(r.edges), shards*perShard)
	}
	perShardSeen := make([]int, shards)
	for _, e := range r.edges {
		// Within one shard, edges must arrive in production order.
		if e.W != perShardSeen[e.V] {
			t.Fatalf("shard %d: edge %d arrived out of order (want %d)", e.V, e.W, perShardSeen[e.V])
		}
		perShardSeen[e.V]++
	}
	if !r.flushed {
		t.Fatal("inner sink not flushed by Close")
	}
}

func TestFanInBatchProducer(t *testing.T) {
	var total CountingSink
	f := NewFanIn(&total, 0)
	sink := f.ForShard().(BatchSink)
	// Batches both smaller and larger than the pooled buffer.
	n := 0
	for _, size := range []int{10, BatchLen, 3*BatchLen + 5, 1} {
		if err := sink.EdgeBatch(batchOf(size, n)); err != nil {
			t.Fatal(err)
		}
		n += size
	}
	if err := Finish(sink.(Sink)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if total.Count() != int64(n) {
		t.Fatalf("counted %d edges, want %d", total.Count(), n)
	}
}

func TestFanInPropagatesConsumerError(t *testing.T) {
	boom := fmt.Errorf("inner sink refused")
	fail := SinkFunc(func(v, w int) error { return boom })
	f := NewFanIn(fail, 1)
	sink := f.ForShard()
	// Keep producing until the consumer's failure propagates back; the
	// bounded channel must never deadlock this loop.
	var sawErr error
	for i := 0; i < 100*BatchLen && sawErr == nil; i++ {
		sawErr = sink.Edge(i, i)
	}
	if !errors.Is(sawErr, boom) {
		t.Fatalf("producer error = %v, want %v", sawErr, boom)
	}
	if err := f.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}
