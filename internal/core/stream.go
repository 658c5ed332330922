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
// context (deadline, Ctrl-C) aborts mid-generation within one polling
// stride and surfaces ctx.Err(), leaving whatever edges were already
// delivered as discardable partial work.
//
// Work layout: "rows" are the term rows of computeLayout (for K = 1, the
// |E_A| factor edges followed in mode (ii) by the n_A self loops); a
// shard is a stripe of rows, walked by the kernel in walk.go.

// streamPollStride bounds how many product edges may be emitted after a
// cancellation before the stream notices it.
const streamPollStride = 1024

// streamObsBatch is how many edges a shard accumulates locally before
// flushing them to the shared edge counter — the "counters batched per
// shard" half of the obs overhead contract: one atomic add per 1024
// edges while enabled, zero per-edge work while disabled.
const streamObsBatch = 1024

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

// shardRange validates (shard, nshards) and returns the shard's half-open
// row range.  Bounds come from exec.Stripe, which never forms shard*rows,
// so huge factor edge counts with many shards cannot overflow.
func (p *Product) shardRange(shard, nshards int) (lo, hi int, err error) {
	if nshards <= 0 {
		return 0, 0, fmt.Errorf("core: nshards must be positive, got %d", nshards)
	}
	if shard < 0 || shard >= nshards {
		return 0, 0, fmt.Errorf("core: shard %d out of range [0,%d)", shard, nshards)
	}
	lo, hi = exec.Stripe(shard, nshards, p.numRows())
	return lo, hi, nil
}

// shardWindow validates (shard, nshards) and returns the shard's
// window: its row stripe, every last-factor edge.
func (p *Product) shardWindow(shard, nshards int) (window, error) {
	lo, hi, err := p.shardRange(shard, nshards)
	if err != nil {
		return window{}, err
	}
	return p.region(lo, hi, 0, p.lastEdges()), nil
}

// EachEdgeShard streams shard `shard` of `nshards` disjoint slices of the
// product's undirected edge set.  The union over all shards is exactly the
// EachEdge stream; edges never repeat across shards.  Iteration stops
// early if yield returns false.
func (p *Product) EachEdgeShard(shard, nshards int, yield func(v, w int) bool) error {
	return p.EachEdgeShardContext(context.Background(), shard, nshards, yield)
}

// EachEdgeShardContext is EachEdgeShard under a context.  Cancellation is
// checked every streamPollStride emitted edges; on cancellation the
// stream stops without invoking yield again and returns ctx.Err().  An
// edge is never emitted twice, cancelled or not.  A non-cancellable
// context (context.Background) skips the polling.
func (p *Product) EachEdgeShardContext(ctx context.Context, shard, nshards int, yield func(v, w int) bool) error {
	win, err := p.shardWindow(shard, nshards)
	if err != nil {
		return err
	}
	return p.walkEdges(ctx, win, yield)
}

// EachEdgeContext streams the whole edge set (the EachEdge order) under a
// context; see EachEdgeShardContext for the cancellation contract.
func (p *Product) EachEdgeContext(ctx context.Context, yield func(v, w int) bool) error {
	return p.EachEdgeShardContext(ctx, 0, 1, yield)
}

// ShardEdgeCount returns the number of undirected edges shard `shard` of
// `nshards` will emit, without streaming.  Closed form on the row range:
// every row of term t emits exactly termPer[t] product edges, so the
// count is Σ_t overlap(shard, term t)·termPer[t] — O(K) terms and no
// per-edge or per-row work at any chain length.  For K = 1 this is the
// historical (2·edgeRows + selfRows)·|E_B|.  Row counts and per-row
// multiplicities were overflow-checked against |E_C| at construction, so
// the arithmetic here cannot wrap.
func (p *Product) ShardEdgeCount(shard, nshards int) (int64, error) {
	win, err := p.shardWindow(shard, nshards)
	return win.hi, err
}

// StreamEdgesParallel streams all shards concurrently, delivering each
// shard to the sink returned by sinkFor(shard).  Sinks are used from
// exactly one goroutine each; a non-nil error from any sink aborts the
// remaining shards and is returned (first error wins).
//
// Deprecated-style compatibility wrapper: new callers should use
// StreamEdgesParallelContext, which adds cancellation and the exec.Sink
// vocabulary.
func (p *Product) StreamEdgesParallel(nshards int, sinkFor func(shard int) func(v, w int) error) error {
	return p.StreamEdgesParallelContext(context.Background(), nshards, func(shard int) exec.Sink {
		return exec.SinkFunc(sinkFor(shard))
	})
}

// StreamEdgesParallelContext streams all shards on the exec engine's
// bounded worker pool.  Each shard's edges go to the sink returned by
// sinkFor(shard); a sink is used from one goroutine at a time and is
// flushed (exec.Finish) when its shard completes.  A sink that also
// implements exec.BatchSink is fed through the batched hot loop —
// whole pooled buffers per call instead of one dynamic dispatch per
// edge; prefer that for any throughput-sensitive consumer.  The first
// sink or generation error cancels the remaining shards and is
// returned; if ctx is cancelled mid-generation the stream aborts
// promptly with ctx.Err() and already-written sink output is partial
// work for the caller to discard.
func (p *Product) StreamEdgesParallelContext(ctx context.Context, nshards int, sinkFor func(shard int) exec.Sink) error {
	if nshards <= 0 {
		return fmt.Errorf("core: nshards must be positive, got %d", nshards)
	}
	// One Enabled read decides the whole stream's code path: disabled
	// runs take the exact pre-instrumentation per-edge loop.  The
	// labeled per-shard counters are resolved here, once per stream
	// from a process-wide cache, never in the shard epilogue.
	instr := obs.Enabled()
	var spanDone func()
	var counters []*obs.Counter
	if instr {
		ctx, spanDone = obs.Span(ctx, "core.stream")
		defer spanDone()
		counters = shardEdgeCounters(nshards)
	}
	return exec.Sharded(ctx, nshards, func(ctx context.Context, s int) error {
		sink := sinkFor(s)
		var c *obs.Counter
		if instr {
			c = counters[s]
		}
		if bs, ok := sink.(exec.BatchSink); ok {
			if err := p.streamShardBatch(ctx, s, nshards, c, bs); err != nil {
				return err
			}
			return exec.Finish(sink)
		}
		return p.streamShardPerEdge(ctx, s, nshards, instr, c, sink)
	})
}

// streamShardPerEdge runs one shard through the per-edge vocabulary.
// Kept as its own function — not inlined into the dispatch closure
// above — so the yield closure's enclosing frame stays small; folding
// it next to the batch branch measurably slows the per-edge loop.
func (p *Product) streamShardPerEdge(ctx context.Context, s, nshards int, instr bool, shardEdges *obs.Counter, sink exec.Sink) error {
	edge := sink.Edge
	if f, ok := sink.(exec.SinkFunc); ok {
		edge = f // skip the interface dispatch in the per-edge hot path
	}
	var sinkErr error
	yield := func(v, w int) bool {
		if e := edge(v, w); e != nil {
			sinkErr = e
			return false
		}
		return true
	}
	var err error
	if instr {
		err = p.streamShardInstrumented(ctx, s, nshards, shardEdges, yield)
	} else {
		err = p.EachEdgeShardContext(ctx, s, nshards, yield)
	}
	switch {
	case err != nil:
		return err
	case sinkErr != nil:
		return sinkErr
	}
	return exec.Finish(sink)
}

// streamShardInstrumented streams one shard with per-shard metrics:
// edges flush to the shared counter every streamObsBatch, and shardObs
// records the shard's completion.  Partial counts from aborted shards
// still flush, so the progress reporter and final snapshot agree with
// what sinks saw.
func (p *Product) streamShardInstrumented(ctx context.Context, s, nshards int, shardEdges *obs.Counter, yield func(v, w int) bool) error {
	done := shardObs(s, shardEdges)
	var batch, total int64
	err := p.EachEdgeShardContext(ctx, s, nshards, func(v, w int) bool {
		ok := yield(v, w)
		if ok {
			batch++
			if batch == streamObsBatch {
				mStreamEdges.Add(batch)
				total += batch
				batch = 0
			}
		}
		return ok
	})
	mStreamEdges.Add(batch)
	done(total+batch, err)
	return err
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
