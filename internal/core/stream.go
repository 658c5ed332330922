package core

import (
	"context"
	"fmt"
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

// numRows returns the sharding row count: every term's rows, fixed (and
// overflow-checked) at construction by computeLayout.  For K = 1 this is
// |E_A| (+ n_A in mode (ii)), the historical layout.
func (p *Product) numRows() int {
	return p.termOff[len(p.termOff)-1]
}

// StreamEdgesParallelContext streams all shards on the exec engine's
// bounded worker pool.  Each shard's edges go to the sink returned by
// sinkFor(shard); a sink is used from one goroutine at a time, takes
// the shard's edges in pooled batches of up to exec.BatchLen, and is
// flushed (exec.Finish) when its shard completes.  The union over all
// shards is exactly the EachEdge stream; edges never repeat across
// shards.  The first sink or generation error cancels the remaining
// shards and is returned; if ctx is cancelled mid-generation the stream
// aborts after at most the batch in flight with ctx.Err(), and
// already-written sink output is partial work for the caller to
// discard.
func (p *Product) StreamEdgesParallelContext(ctx context.Context, nshards int, sinkFor func(shard int) exec.Sink) error {
	if nshards <= 0 {
		return fmt.Errorf("core: nshards must be positive, got %d", nshards)
	}
	// One Enabled read decides the whole stream's instrumentation.
	instr := obs.Enabled()
	if instr {
		var spanDone func()
		ctx, spanDone = obs.Span(ctx, "core.stream")
		defer spanDone()
	}
	return exec.Sharded(ctx, nshards, func(ctx context.Context, s int) error {
		return p.streamShard(ctx, s, nshards, instr, sinkFor(s))
	})
}

// streamShard walks shard s — block (s, 0) of nshards×1 — into sink in
// batches, capturing the first sink error, and flushes the sink on
// success.  Instrumented (instr), it keeps per-shard metrics, which
// batching makes free: the shared edge counter takes one Add per batch,
// and the labeled per-shard counter, looked up once before the walk,
// takes one Add per shard.
func (p *Product) streamShard(ctx context.Context, s, nshards int, instr bool, sink exec.Sink) error {
	win, err := p.blockWindow(s, nshards, 0, 1)
	if err != nil {
		return err
	}
	var done func(total int64, err error)
	if instr {
		done = shardObs(s)
	}
	var total int64
	var sinkErr error
	err = p.walkBatch(ctx, win, func(batch []exec.Edge) bool {
		if e := sink.EdgeBatch(batch); e != nil {
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

// shardObs resolves shard s's labeled edge counter, opens its timeline
// span, and returns its epilogue, which records the shard's total, the
// done count, and the shard's wall time.
func shardObs(s int) func(total int64, err error) {
	shardEdges := obs.Default.Counter(obs.Labeled(MetricStreamEdges, "shard", s))
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
