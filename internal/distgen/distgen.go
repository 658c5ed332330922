// Package distgen coordinates distributed 2D-blocked generation over a
// fleet of `kronbip serve` replicas — the paper's "millions of users"
// scale-out story made concrete by its closed forms.
//
// The coordinator partitions a factor-chain spec's canonical edge order
// into a rows×cols grid of blocks (core.EachEdgeBlockBatchContext: rows
// stripe the stream's row space, cols stripe the last factor's edge
// list) and leases each block to a replica over POST /v1/leases.  A
// lease always travels as bin wire frames (internal/wire); Options.Format
// only picks how the coordinator renders the merged output.  Four
// properties of the paper's construction make the distribution trivial
// to verify and safe to retry:
//
//   - determinism: the factor state fixes every byte of every block, so
//     the coordinator encodes each block itself, the way a replica does,
//     and accepts a lease only if its body is exactly those bytes; a
//     lease lost to a crash, a deadline or a wrong byte is simply
//     re-issued elsewhere — at-least-once delivery with exact replays,
//     resumed from the last frame boundary up to which the failed body
//     matched, not from scratch;
//   - closed-form counts: core.BlockEdgeCount prices every block in
//     O(K) before any generation, so the coordinator sizes a balanced
//     grid up front and checks the reassembled total against |E_C|
//     without trusting any worker;
//   - ground truth during generation (the paper's §V): every lease
//     prices its edges with their 4-cycle counts as it walks (Thm. 5)
//     and reports its block's Σ◊ in a trailer.  The accepted blocks'
//     sums must add up to exactly 4·□(C), the factor-only closed form,
//     so every run checks the fleet's 4-cycle count without pricing an
//     edge itself;
//   - order independence of the audit invariants: degree sums, the dual
//     4-cycle routes (the edge route fed the fleet's Σ◊) and sampled
//     membership do not care which replica produced which edge, so the
//     online auditor's stream checks run on the walk that encodes each
//     block, once per block, as they would on a local run.
//
// Delivery is at-least-once with first-completion-wins dedup: duplicate
// results for a block (speculative re-issue, a slow worker finishing
// after its replacement) are discarded before they reach the output, so
// the merged stream carries each block exactly once, in deterministic
// (row, col)-major block order.  A run ends as soon as its
// merge is decided, cancelling any lease still outstanding.
//
// Scheduling is pull-based: each replica's loop takes the next pending
// block when it is free, so fast workers naturally take more of the
// grid (the rebalancing the straggler stats motivate), a 429 +
// Retry-After parks only the saturated replica, and when the pending
// queue drains, idle workers speculatively duplicate the longest-running
// outstanding lease once it exceeds a multiple of the observed EWMA
// lease duration.
package distgen

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/obs"
	"kronbip/internal/spec"
)

// Coordinator metrics, published on obs.Default.  All are per-lease or
// per-block (never per edge); per-worker detail lives in Result rather
// than labeled series, because worker URLs are unbounded across runs and
// the registry's name set must stay deterministic.
var (
	mLeasesIssued   = obs.Default.Counter("distgen.leases.issued")
	mLeasesRetried  = obs.Default.Counter("distgen.leases.retried")
	mLeasesSpec     = obs.Default.Counter("distgen.leases.speculative")
	mLeasesBackoff  = obs.Default.Counter("distgen.leases.backoff") // 429 deferrals
	mLeasesFailed   = obs.Default.Counter("distgen.leases.failed")
	mLeasesResumed  = obs.Default.Counter("distgen.leases.resumed") // banked-frame resumes issued
	mBlocksDone     = obs.Default.Counter("distgen.blocks.done")
	mEdgesMerged    = obs.Default.Counter("distgen.edges.merged")
	gWorkersBusy    = obs.Default.Gauge("distgen.workers.busy")
	mDuplicatesDrop = obs.Default.Counter("distgen.duplicates.dropped")
)

// ErrExhausted wraps a block that failed more than MaxAttempts leases.
var ErrExhausted = errors.New("distgen: block exhausted its lease attempts")

// DefaultTargetBlockEdges sizes auto-planned blocks: big enough to
// amortize one HTTP round trip, small enough that a lost lease re-does
// little work.
const DefaultTargetBlockEdges = int64(1) << 20

// Options configures one distributed run.
type Options struct {
	// Workers lists the serve replicas' base URLs (e.g.
	// "http://127.0.0.1:8080"); at least one is required.
	Workers []string
	// Rows, Cols fix the blocking grid: both positive, or both zero to
	// auto-size from the closed-form |E_C| and TargetBlockEdges (see
	// plan).
	Rows, Cols int
	// TargetBlockEdges is the auto-sizing per-block edge target
	// (default DefaultTargetBlockEdges).
	TargetBlockEdges int64
	// LeaseTimeout is the per-lease deadline; a lease still running past
	// it is abandoned and the block re-issued (default 2m).
	LeaseTimeout time.Duration
	// MaxAttempts bounds failed leases per block before the run aborts
	// with ErrExhausted (default 2 + number of workers — every replica
	// gets a chance plus slack for transient failures).
	MaxAttempts int
	// Audit runs the online ground-truth auditor over the merged stream:
	// degree sums, dual-route 4-cycles (the edge route from the leases'
	// Σ◊), exact count, sampled membership.
	Audit bool
	// AuditSample is the auditor's membership sampling stride (0 = the
	// audit package default).
	AuditSample int
	// Format selects the merged output rendering: "tsv" (default),
	// "ndjson" or "bin" (each block's wire frames as leased).  Leases are
	// bin whatever the output, so every run resumes a dropped lease from
	// a frame boundary; a text output is rendered by the coordinator's
	// own walk of each block, the walk that encodes its expected bytes.
	Format string
	// RequestID correlates the run across every replica's access log,
	// timeline and flight recorder; generated when empty.  Propagated as
	// X-Kronbip-Request-Id on every lease, alongside a W3C traceparent
	// sharing one run-wide trace id.
	RequestID string
	// Client issues the lease requests (default http.DefaultClient).
	Client *http.Client
	// backoffFloor raises the minimum 429 park duration in tests; the
	// Retry-After header still wins when it asks for longer.
	backoffFloor time.Duration
}

func (o Options) withDefaults() (Options, error) {
	if len(o.Workers) == 0 {
		return o, errors.New("distgen: at least one worker URL is required")
	}
	if o.Rows < 0 || o.Cols < 0 || (o.Rows == 0) != (o.Cols == 0) {
		return o, fmt.Errorf("distgen: Rows=%d Cols=%d: set both positive, or both zero to auto-size", o.Rows, o.Cols)
	}
	if o.TargetBlockEdges <= 0 {
		o.TargetBlockEdges = DefaultTargetBlockEdges
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2 + len(o.Workers)
	}
	switch o.Format {
	case "":
		o.Format = "tsv"
	case "tsv", "ndjson", "bin":
	default:
		return o, fmt.Errorf("distgen: bad format %q (want tsv, ndjson or bin)", o.Format)
	}
	if o.RequestID == "" {
		o.RequestID = "distgen-" + randHex(8)
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o, nil
}

// randHex returns n random bytes hex-encoded (2n characters).
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return "00000000000000000000000000000000"[:2*n]
	}
	return hex.EncodeToString(b)
}

// WorkerStats is one replica's share of the run.
type WorkerStats struct {
	URL         string  `json:"url"`
	Leases      int     `json:"leases"`       // accepted results
	Failures    int     `json:"failures"`     // errored/timed-out leases
	Backoffs    int     `json:"backoffs"`     // 429 deferrals honored
	EWMASeconds float64 `json:"ewma_seconds"` // smoothed lease duration
}

// Result summarizes a completed run.
type Result struct {
	Edges      int64         `json:"edges"`       // merged total, verified == |E_C|
	FourCycles int64         `json:"four_cycles"` // accepted leases' Σ◊ / 4, verified == □(C)
	Blocks     int           `json:"blocks"`      // rows × cols
	Rows       int           `json:"rows"`
	Cols       int           `json:"cols"`
	Retries    int           `json:"retries"` // re-issued + speculative leases
	Workers    []WorkerStats `json:"workers"`
	// Audit is the merged-stream report when Options.Audit was set.
	AuditChecks     int    `json:"audit_checks,omitempty"`
	AuditViolations int    `json:"audit_violations,omitempty"`
	RequestID       string `json:"request_id"`
}

// plan sizes the blocking grid: honor explicit rows/cols (withDefaults
// admits both set or neither), otherwise split |E_C| into
// ~TargetBlockEdges blocks, at least two per worker for balance, shaped
// near-square, with cols capped at the last factor's edge count (the
// column dimension's extent — wider is all-empty stripes).
func plan(p *core.Product, o Options) (rows, cols int) {
	if o.Rows > 0 {
		return o.Rows, o.Cols
	}
	nblocks := int64(1)
	if t := o.TargetBlockEdges; p.NumEdges() > t {
		nblocks = (p.NumEdges() + t - 1) / t
	}
	if min := int64(2 * len(o.Workers)); nblocks < min {
		nblocks = min
	}
	if nblocks > 4096 {
		nblocks = 4096
	}
	cols = int(math.Ceil(math.Sqrt(float64(nblocks))))
	if last := p.FactorB().G.NumEdges(); cols > last {
		cols = last
	}
	if cols < 1 {
		cols = 1
	}
	rows = int((nblocks + int64(cols) - 1) / int64(cols))
	if rows < 1 {
		rows = 1
	}
	return rows, cols
}

// Run generates sp's product across the worker fleet and writes the
// merged edge stream to out in (row, col)-major block order — a
// deterministic permutation of the canonical order (identical to it
// when the grid is 1×1), one Write per non-empty block; out must not
// keep the slice a Write is given.  The spec is built locally too: from
// the O(|E_C|^(1/2)) factor state the coordinator prices every block,
// encodes the bytes every lease must carry, and audits.  Run returns once
// every block is merged or the run has failed, without waiting for
// outstanding speculative twins.
func Run(ctx context.Context, sp spec.Spec, out io.Writer, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sp = sp.WithDefaults()
	p, err := sp.Build()
	if err != nil {
		return nil, err
	}
	rows, cols := plan(p, opts)
	c, err := newCoordinator(p, sp, out, rows, cols, opts)
	if err != nil {
		return nil, err
	}
	return c.run(ctx)
}
