package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
)

// Sharded, parallel edge streaming.  Generation is embarrassingly parallel
// in the factor-edge pairs — the property the paper's distributed-GraphBLAS
// future work relies on — so the undirected edge set of C is split into
// nshards deterministic, disjoint slices that can be produced concurrently
// and written to independent sinks.  All scheduling runs on the shared
// engine in internal/exec, so streams are cancellable: cancelling the
// context (deadline, Ctrl-C) aborts mid-generation within one batch and
// surfaces ctx.Err(), leaving whatever edges were already delivered as
// discardable partial work.
//
// Work layout: "rows" are the term rows of computeLayout (for K = 1, the
// |E_A| factor edges followed in mode (ii) by the n_A self loops).  Shard
// s of n is block (s, 0) of an n×1 blocking (block.go): a stripe of rows
// with every last-factor edge, walked in batches by the kernel in walk.go.

// Metric names produced by the streaming generator, exported so the CLI
// can wire its progress reporter to them.  Per-shard totals additionally
// appear as obs.Labeled(MetricStreamEdges, "shard", s) counters.
const (
	MetricStreamEdges      = "core.stream.edges"       // product edges delivered to sinks
	MetricStreamShardsDone = "core.stream.shards.done" // shards fully streamed
)

var (
	mStreamEdges = obs.Default.Counter(MetricStreamEdges)
	mShardsDone  = obs.Default.Counter(MetricStreamShardsDone)
	hShardSecs   = obs.Default.Histogram("core.stream.shard_seconds")
)

// Labeled per-shard edge counters, resolved once per process per shard
// index and cached in an atomically-published table.  The shard
// epilogue used to call obs.Default.Counter(obs.Labeled(...)) on every
// shard completion of every stream — a registry map lookup plus a
// label-formatting allocation on the hot path's tail, multiplied by
// shards × streams under the serve workload.  Now a completed stream
// reads the table lock-free; the mutex is only taken the first time a
// larger shard count than ever before is requested.
var (
	shardCounterMu  sync.Mutex
	shardCounterTab atomic.Pointer[[]*obs.Counter]
)

// shardEdgeCounters returns the labeled per-shard stream-edge counters
// for shards [0, n), growing the cached table copy-on-write if needed.
func shardEdgeCounters(n int) []*obs.Counter {
	if tab := shardCounterTab.Load(); tab != nil && len(*tab) >= n {
		return (*tab)[:n]
	}
	shardCounterMu.Lock()
	defer shardCounterMu.Unlock()
	var old []*obs.Counter
	if tab := shardCounterTab.Load(); tab != nil {
		old = *tab
	}
	if len(old) >= n {
		return old[:n]
	}
	grown := make([]*obs.Counter, n)
	copy(grown, old)
	for i := len(old); i < n; i++ {
		grown[i] = obs.Default.Counter(obs.Labeled(MetricStreamEdges, "shard", i))
	}
	shardCounterTab.Store(&grown)
	return grown
}

// numRows returns the sharding row count: every term's rows, fixed (and
// overflow-checked) at construction by computeLayout.  For K = 1 this is
// |E_A| (+ n_A in mode (ii)), the historical layout.
func (p *Product) numRows() int {
	return p.termOff[len(p.termOff)-1]
}

// StreamEdgesParallelContext streams all shards on the exec engine's
// bounded worker pool.  Each shard's edges go to the sink returned by
// sinkFor(shard); a sink is used from one goroutine at a time and is
// flushed (exec.Finish) when its shard completes.  The union over all
// shards is exactly the EachEdge stream; edges never repeat across
// shards.  Every shard is walked in pooled batches of up to
// exec.BatchLen edges: a sink that implements exec.BatchSink takes each
// batch in one call, any other sink edge by edge (exec.DeliverBatch).
// The first sink or generation error cancels the remaining shards and
// is returned; if ctx is cancelled mid-generation the stream aborts
// after at most the batch in flight with ctx.Err(), and already-written
// sink output is partial work for the caller to discard.
func (p *Product) StreamEdgesParallelContext(ctx context.Context, nshards int, sinkFor func(shard int) exec.Sink) error {
	if nshards <= 0 {
		return fmt.Errorf("core: nshards must be positive, got %d", nshards)
	}
	// One Enabled read decides the whole stream's instrumentation.  The
	// labeled per-shard counters are resolved here, once per stream
	// from a process-wide cache, never in the shard epilogue.
	var counters []*obs.Counter
	if obs.Enabled() {
		var spanDone func()
		ctx, spanDone = obs.Span(ctx, "core.stream")
		defer spanDone()
		counters = shardEdgeCounters(nshards)
	}
	return exec.Sharded(ctx, nshards, func(ctx context.Context, s int) error {
		var c *obs.Counter
		if counters != nil {
			c = counters[s]
		}
		return p.streamShard(ctx, s, nshards, c, sinkFor(s))
	})
}

// streamShard walks shard s — block (s, 0) of nshards×1 — into sink in
// batches, capturing the first sink error, and flushes the sink on
// success.  The BatchSink check is made once per shard.  With a non-nil
// shardEdges (obs enabled) it keeps per-shard metrics, which batching
// makes free: the shared edge counter takes one Add per batch, and the
// labeled per-shard counter — pre-resolved once per process by
// shardEdgeCounters, never looked up in the epilogue — takes one.
func (p *Product) streamShard(ctx context.Context, s, nshards int, shardEdges *obs.Counter, sink exec.Sink) error {
	win, err := p.blockWindow(s, nshards, 0, 1)
	if err != nil {
		return err
	}
	deliver := func(batch []exec.Edge) error { return exec.DeliverBatch(sink, batch) }
	if bs, ok := sink.(exec.BatchSink); ok {
		deliver = bs.EdgeBatch
	}
	var done func(total int64, err error)
	if shardEdges != nil {
		done = shardObs(s, shardEdges)
	}
	var total int64
	var sinkErr error
	err = p.walkBatch(ctx, win, func(batch []exec.Edge) bool {
		if e := deliver(batch); e != nil {
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
	if err != nil {
		return err
	}
	return exec.Finish(sink)
}

// shardObs opens one instrumented shard's timeline span and returns its
// epilogue, which records a labeled per-shard total (through the
// pre-resolved counter handle — no registry lookup here), the done
// count, and the shard's wall time.
func shardObs(s int, shardEdges *obs.Counter) func(total int64, err error) {
	start := time.Now()
	var end timeline.Done
	if timeline.Enabled() {
		end = timeline.Begin(timeline.CatShard, "core.stream", s)
	}
	return func(total int64, err error) {
		shardEdges.Add(total)
		hShardSecs.Observe(time.Since(start).Seconds())
		if err == nil {
			mShardsDone.Inc()
		}
		if end != nil {
			end(err)
		}
	}
}
