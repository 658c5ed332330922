// Package exec is the shared parallel execution engine for every
// generation, counting and kernel path in the repository.  The paper's
// value proposition is streaming massive products C = A ⊗ B without
// materializing them; at production scale that streaming must be
// cancellable, deadline-aware and uniform across subsystems, so the
// core generator, the butterfly counters, the GraphBLAS kernels and the
// CLI all schedule work through this one package instead of hand-rolled
// worker pools.
//
// The engine provides:
//
//   - Sharded / Ranges: bounded worker pools over deterministic work
//     partitions, with first-error propagation and cooperative
//     cancellation (a failing or cancelled shard aborts its siblings);
//   - Stripe: overflow-safe contiguous partitioning of [0, n);
//   - Poller: a cheap per-worker cancellation probe for tight loops;
//   - Sink: the one edge-consumer interface, which takes whole batches
//     of edges (counting, multi, TSV and NDJSON sinks), with
//     sync.Pool-backed batch buffers.
//
// Cancellation contract: when the caller's context is cancelled or its
// deadline passes, every function here stops within one polling stride,
// abandons its remaining work, and returns ctx.Err().  Partial effects
// (edges already delivered to sinks, slices partially filled) are the
// caller's to discard; no work item is ever executed twice.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
)

// Pool metrics (internal/obs).  Accounting is per shard task, never per
// element, and only performed while instrumentation is enabled — the
// disabled cost is one atomic load per ShardedN call.
var (
	poolTasks   = obs.Default.Counter("exec.pool.tasks")         // shard tasks executed
	poolCancels = obs.Default.Counter("exec.pool.cancellations") // pool runs aborted by ctx
	poolActive  = obs.Default.Gauge("exec.pool.active")          // tasks running right now
	poolPeak    = obs.Default.Gauge("exec.pool.peak")            // high-water pool occupancy
)

// notePoolCancelled counts a pool run that ended in cancellation.
func notePoolCancelled(instr bool, err error) {
	if instr && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		poolCancels.Inc()
	}
}

// Sharded runs fn(ctx, shard) for every shard in [0, nshards) on a bounded
// worker pool of GOMAXPROCS goroutines.  Shards are claimed in order but
// run concurrently; each shard runs at most once.  The first non-nil error
// cancels the context passed to the remaining shards and is returned.  If
// ctx is cancelled first, Sharded returns ctx.Err().
func Sharded(ctx context.Context, nshards int, fn func(ctx context.Context, shard int) error) error {
	return ShardedN(ctx, nshards, 0, fn)
}

// ShardedN is Sharded with an explicit worker bound; workers <= 0 selects
// GOMAXPROCS.  With one worker the shards run sequentially on the calling
// goroutine (still checking ctx between shards).
func ShardedN(ctx context.Context, nshards, workers int, fn func(ctx context.Context, shard int) error) error {
	if nshards <= 0 {
		return fmt.Errorf("exec: nshards must be positive, got %d", nshards)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nshards {
		workers = nshards
	}
	instr := obs.Enabled()
	tl := timeline.Enabled()
	if workers == 1 {
		for s := 0; s < nshards; s++ {
			if err := ctx.Err(); err != nil {
				notePoolCancelled(instr, err)
				return err
			}
			if instr {
				poolTasks.Inc()
				poolPeak.Max(poolActive.Add(1))
			}
			var end timeline.Done
			if tl {
				end = timeline.Begin(timeline.CatShard, "exec.pool", s)
			}
			err := fn(ctx, s)
			if end != nil {
				end(err)
			}
			if instr {
				poolActive.Add(-1)
			}
			if err != nil {
				notePoolCancelled(instr, err)
				return err
			}
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64 // next unclaimed shard
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1) - 1)
				if s >= nshards || wctx.Err() != nil {
					return
				}
				if instr {
					poolTasks.Inc()
					poolPeak.Max(poolActive.Add(1))
				}
				var end timeline.Done
				if tl {
					end = timeline.Begin(timeline.CatShard, "exec.pool", s)
				}
				err := fn(wctx, s)
				if end != nil {
					end(err)
				}
				if instr {
					poolActive.Add(-1)
				}
				if err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	notePoolCancelled(instr, err)
	return err
}

// Workers resolves a requested worker count against n work items: values
// <= 0 select GOMAXPROCS, and the result never exceeds n (minimum 1).
// Ranges applies it internally; callers that keep per-worker state sized
// by worker index should resolve through it too so the counts agree.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Ranges partitions [0, n) into `workers` contiguous stripes via Stripe and
// runs fn(ctx, worker, lo, hi) for each non-empty stripe on the pool.
// workers <= 0 selects GOMAXPROCS; workers above n are clamped.  Error and
// cancellation semantics are those of Sharded.
func Ranges(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, lo, hi int) error) error {
	if n < 0 {
		return fmt.Errorf("exec: n must be non-negative, got %d", n)
	}
	if n == 0 {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	workers = Workers(workers, n)
	return ShardedN(ctx, workers, workers, func(ctx context.Context, w int) error {
		lo, hi := Stripe(w, workers, n)
		if lo >= hi {
			return nil
		}
		return fn(ctx, w, lo, hi)
	})
}

// Stripe returns the half-open bounds [lo, hi) of stripe w of `workers`
// contiguous, disjoint, exhaustive stripes of [0, n).  The first n%workers
// stripes are one element longer; the arithmetic never forms w*n, so the
// bounds cannot overflow no matter how large n is.
func Stripe(w, workers, n int) (lo, hi int) {
	q, r := n/workers, n%workers
	if w < r {
		lo = w * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (w-r)*q
	return lo, lo + q
}

// Poller is a cheap cooperative-cancellation probe for tight loops.  Calling
// Cancelled increments a counter and consults ctx.Done() only once every
// `stride` calls, so the common case costs an increment and a compare.  A
// Poller is owned by a single goroutine; it is not safe for concurrent use.
// Once tripped it stays tripped.
type Poller struct {
	done    <-chan struct{}
	ctx     context.Context
	stride  uint32
	n       uint32
	tripped bool
}

// NewPoller returns a Poller checking ctx every `stride` Cancelled calls;
// stride <= 0 selects 1024.  A background (non-cancellable) context yields
// a poller whose Cancelled is a pure counter bump.
func NewPoller(ctx context.Context, stride int) *Poller {
	if stride <= 0 {
		stride = 1024
	}
	return &Poller{done: ctx.Done(), ctx: ctx, stride: uint32(stride)}
}

// Cancelled reports whether the context has been cancelled, polling it at
// the configured stride.
func (p *Poller) Cancelled() bool {
	if p.tripped {
		return true
	}
	if p.done == nil {
		return false
	}
	p.n++
	if p.n%p.stride != 0 {
		return false
	}
	select {
	case <-p.done:
		p.tripped = true
		return true
	default:
		return false
	}
}

// Err returns the context's error; non-nil once the poller's context is
// cancelled (whether or not Cancelled has observed it yet).
func (p *Poller) Err() error { return p.ctx.Err() }
