package exec

import "sync"

// Batched edge emission.  The per-edge Sink vocabulary costs one
// dynamic call (and, behind fan-in shapes, one lock acquisition or
// channel send) per product edge; at the generator's edge rates that
// dispatch dominates the arithmetic.  BatchSink is the wholesale
// alternative: producers fill pooled []Edge buffers and hand a whole
// slice downstream in one call, so per-edge costs are paid once per
// BatchLen edges.  Every composite sink in this package (counting,
// multi, locked, buffered, text, fan-in) speaks both vocabularies, and
// DeliverBatch bridges a batch onto a sink that speaks only Edge.

// Edge is one undirected product edge {V, W} in a batch payload.
type Edge struct{ V, W int }

// BatchSink consumes product edges a slice at a time.  The slice is
// owned by the producer and is reused after EdgeBatch returns — an
// implementation that needs the edges later must copy them.  Like
// Sink.Edge, a non-nil error aborts the stream feeding the sink, and
// implementations are used from one goroutine at a time unless
// documented otherwise.
type BatchSink interface {
	EdgeBatch(edges []Edge) error
}

// BatchLen is the canonical batch buffer capacity: big enough to
// amortize downstream calls (and channel sends) to noise, small enough
// that a buffer stays cache-resident (64 KiB of edges on 64-bit).
const BatchLen = bufferedSinkCap

// edgeBufPool recycles batch buffers across shards and streams.
var edgeBufPool = sync.Pool{
	New: func() any {
		b := make([]Edge, 0, BatchLen)
		return &b
	},
}

// GetEdgeBuf returns an empty pooled edge buffer with capacity
// BatchLen.  Return it with PutEdgeBuf when done.
func GetEdgeBuf() *[]Edge {
	return edgeBufPool.Get().(*[]Edge)
}

// PutEdgeBuf recycles a buffer obtained from GetEdgeBuf.  The caller
// must not retain the slice afterwards.
func PutEdgeBuf(b *[]Edge) {
	if b == nil || cap(*b) < BatchLen {
		return // undersized strays would poison the pool
	}
	*b = (*b)[:0]
	edgeBufPool.Put(b)
}

// DeliverBatch hands edges to s in one call when s implements
// BatchSink, falling back to per-edge delivery otherwise.  Either way
// the edges arrive in slice order and the first error aborts delivery.
func DeliverBatch(s Sink, edges []Edge) error {
	if bs, ok := s.(BatchSink); ok {
		return bs.EdgeBatch(edges)
	}
	for _, e := range edges {
		if err := s.Edge(e.V, e.W); err != nil {
			return err
		}
	}
	return nil
}
