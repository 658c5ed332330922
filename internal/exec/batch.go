package exec

import "sync"

// Batched edge emission.  A per-edge call would cost one dynamic
// dispatch per product edge, and at the generator's edge rates that
// dispatch dominates the arithmetic; so producers fill pooled []Edge
// buffers and hand a Sink a whole slice in one call, paying per-call
// costs once per BatchLen edges.

// Edge is one undirected product edge {V, W} in a batch payload.
type Edge struct{ V, W int }

// BatchLen is the canonical batch buffer capacity: big enough to
// amortize downstream calls to noise, small enough that a buffer stays
// cache-resident (64 KiB of edges on 64-bit).
const BatchLen = 4096

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
