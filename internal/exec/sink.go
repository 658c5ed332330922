package exec

import (
	"sync"
	"sync/atomic"
)

// Sink consumes a stream of product edges.  Implementations are used from
// one goroutine at a time unless documented otherwise (see LockedSink); a
// non-nil error aborts the stream feeding the sink.
type Sink interface {
	Edge(v, w int) error
}

// Flusher is implemented by sinks that buffer; Finish calls it when a
// stream completes normally.
type Flusher interface {
	Flush() error
}

// Finish flushes s if it buffers.  Call it exactly once per sink after the
// last Edge of a successful stream; aborted streams may skip it, leaving
// buffered edges undelivered by design.
func Finish(s Sink) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// SinkFunc adapts a plain edge callback to a Sink.
type SinkFunc func(v, w int) error

// Edge calls f.
func (f SinkFunc) Edge(v, w int) error { return f(v, w) }

// NullSink discards every edge; the measuring stick for generator-side
// throughput benchmarks.
type NullSink struct{}

// Edge discards the edge.
func (NullSink) Edge(int, int) error { return nil }

// EdgeBatch discards the batch.
func (NullSink) EdgeBatch([]Edge) error { return nil }

// CountingSink counts edges atomically; safe for concurrent writers, so a
// single CountingSink can tally across every shard of a parallel stream.
type CountingSink struct {
	n atomic.Int64
}

// Edge counts the edge.
func (c *CountingSink) Edge(int, int) error {
	c.n.Add(1)
	return nil
}

// EdgeBatch counts the whole batch with one atomic add.
func (c *CountingSink) EdgeBatch(edges []Edge) error {
	c.n.Add(int64(len(edges)))
	return nil
}

// Count returns the number of edges seen so far.
func (c *CountingSink) Count() int64 { return c.n.Load() }

// MultiSink fans each edge out to every member in order, stopping at the
// first error; its Flush flushes every member.
type MultiSink []Sink

// Edge delivers the edge to each member sink.
func (m MultiSink) Edge(v, w int) error {
	for _, s := range m {
		if err := s.Edge(v, w); err != nil {
			return err
		}
	}
	return nil
}

// EdgeBatch delivers the batch to each member, wholesale where the
// member speaks BatchSink and edge-at-a-time otherwise.
func (m MultiSink) EdgeBatch(edges []Edge) error {
	for _, s := range m {
		if err := DeliverBatch(s, edges); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes every member that buffers.
func (m MultiSink) Flush() error {
	for _, s := range m {
		if err := Finish(s); err != nil {
			return err
		}
	}
	return nil
}

// LockedSink serializes concurrent writers onto a single underlying sink
// with a mutex — the bridge between a sharded stream and one shared
// consumer.  Prefer per-shard sinks (or a BufferedSink per shard in front
// of a LockedSink) when contention matters.
type LockedSink struct {
	mu    sync.Mutex
	inner Sink
}

// NewLockedSink wraps inner for concurrent use.
func NewLockedSink(inner Sink) *LockedSink { return &LockedSink{inner: inner} }

// Edge delivers the edge under the lock.
func (l *LockedSink) Edge(v, w int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Edge(v, w)
}

// EdgeBatch delivers the whole batch under one lock acquisition — the
// fan-in cost drops from a lock per edge to a lock per BatchLen edges.
func (l *LockedSink) EdgeBatch(edges []Edge) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return DeliverBatch(l.inner, edges)
}

// Flush flushes the underlying sink under the lock.
func (l *LockedSink) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Finish(l.inner)
}

// bufferedSinkCap is the default BufferedSink capacity: big enough to
// amortize the downstream call, small enough to stay cache-resident.
const bufferedSinkCap = 4096

// BufferedSink batches edges in a pooled buffer and hands them downstream
// in bursts, cutting per-edge call (and, behind a LockedSink, lock) costs.
// It is also the Sink→BatchSink adapter: when the inner sink speaks
// BatchSink, each drain is a single wholesale EdgeBatch call.  Flush
// drains the buffer; Close drains it and returns it to the pool.
type BufferedSink struct {
	inner Sink
	buf   *[]Edge
}

// NewBufferedSink wraps inner with a pooled batch buffer.
func NewBufferedSink(inner Sink) *BufferedSink {
	return &BufferedSink{inner: inner, buf: GetEdgeBuf()}
}

// Edge buffers the edge, draining downstream when the buffer fills.
func (b *BufferedSink) Edge(v, w int) error {
	*b.buf = append(*b.buf, Edge{v, w})
	if len(*b.buf) >= cap(*b.buf) {
		return b.drain()
	}
	return nil
}

// EdgeBatch buffers the batch in capacity-sized chunks.  The incoming
// slice is copied (its producer reuses it), so batches re-emerge
// downstream aligned to this sink's own buffer boundaries.
func (b *BufferedSink) EdgeBatch(edges []Edge) error {
	for len(edges) > 0 {
		take := cap(*b.buf) - len(*b.buf)
		if take > len(edges) {
			take = len(edges)
		}
		*b.buf = append(*b.buf, edges[:take]...)
		edges = edges[take:]
		if len(*b.buf) >= cap(*b.buf) {
			if err := b.drain(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *BufferedSink) drain() error {
	err := DeliverBatch(b.inner, *b.buf)
	*b.buf = (*b.buf)[:0]
	return err
}

// Flush drains buffered edges downstream and flushes the inner sink.
func (b *BufferedSink) Flush() error {
	if err := b.drain(); err != nil {
		return err
	}
	return Finish(b.inner)
}

// Close flushes and returns the buffer to the pool; the sink must not be
// used afterwards.
func (b *BufferedSink) Close() error {
	err := b.Flush()
	if b.buf != nil {
		PutEdgeBuf(b.buf)
		b.buf = nil
	}
	return err
}
