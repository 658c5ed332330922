package core

import (
	"context"

	"kronbip/internal/exec"
	"kronbip/internal/obs"
)

// Batched edge streaming.  The per-edge paths in stream.go pay one
// indirect call per product edge; at millions of edges per shard that
// dispatch, not the index arithmetic, is the cost.  The batch paths
// fill a pooled []exec.Edge buffer (capacity exec.BatchLen) in the
// kernel's closure-free hot loop and yield whole batches, so downstream
// work — sink dispatch, fan-in channel sends, obs counter flushes —
// happens once per batch.  StreamEdgesParallelContext picks this path
// automatically for any sink that implements exec.BatchSink.
//
// Cancellation contract: the context is checked before every batch is
// delivered, so no batch is ever yielded after a cancellation is
// observed; at most one buffer's worth of edges (exec.BatchLen) is
// generated-and-discarded past the cancellation point.  An edge is
// never delivered twice, cancelled or not.

// EachEdgeShardBatch streams shard `shard` of `nshards` as batches of
// up to exec.BatchLen edges.  The union over all shards is exactly the
// EachEdge stream; edges never repeat across shards.  The yielded
// slice is reused between calls.  Iteration stops early if yield
// returns false.
func (p *Product) EachEdgeShardBatch(shard, nshards int, yield func(batch []exec.Edge) bool) error {
	return p.EachEdgeShardBatchContext(context.Background(), shard, nshards, yield)
}

// EachEdgeShardBatchContext is EachEdgeShardBatch under a context.
// The context is checked before each batch is delivered; on
// cancellation the stream stops without yielding again and returns
// ctx.Err() (see the package contract above).  A non-cancellable
// context skips the check.
func (p *Product) EachEdgeShardBatchContext(ctx context.Context, shard, nshards int, yield func(batch []exec.Edge) bool) error {
	win, err := p.shardWindow(shard, nshards)
	if err != nil {
		return err
	}
	return p.walkBatch(ctx, win, yield)
}

// EachEdgeBatchContext streams the whole edge set (the EachEdge order)
// in batches under a context; see EachEdgeShardBatchContext for the
// cancellation contract.
func (p *Product) EachEdgeBatchContext(ctx context.Context, yield func(batch []exec.Edge) bool) error {
	return p.EachEdgeShardBatchContext(ctx, 0, 1, yield)
}

// streamShardBatch streams one shard wholesale into bs, capturing the
// first sink error.  With a non-nil shardEdges (obs enabled) it keeps
// per-shard metrics, which batching makes free: the shared edge counter
// takes exactly one Add per batch (>= the streamObsBatch granularity
// the per-edge path had to engineer), and the labeled per-shard counter
// — pre-resolved once per process by shardEdgeCounters, never looked
// up in the epilogue — takes one.
func (p *Product) streamShardBatch(ctx context.Context, s, nshards int, shardEdges *obs.Counter, bs exec.BatchSink) error {
	var done func(total int64, err error)
	if shardEdges != nil {
		done = shardObs(s, shardEdges)
	}
	var total int64
	var sinkErr error
	err := p.EachEdgeShardBatchContext(ctx, s, nshards, func(batch []exec.Edge) bool {
		if e := bs.EdgeBatch(batch); e != nil {
			sinkErr = e
			return false
		}
		if done != nil {
			n := int64(len(batch))
			mStreamEdges.Add(n)
			total += n
		}
		return true
	})
	if err == nil {
		err = sinkErr
	}
	if done != nil {
		done(total, err)
	}
	return err
}
