package distgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kronbip/internal/audit"
	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
)

// pollInterval paces the scheduler's idle re-checks (backoff expiry,
// straggler detection); completions are noticed immediately through the
// shared mutex, this only bounds how stale a *timer*-driven decision can
// be.
const pollInterval = 20 * time.Millisecond

// speculativeFactor: an outstanding lease older than this multiple of
// the EWMA lease duration is a straggler an idle worker may duplicate.
const speculativeFactor = 2.0

// Failure backoff: a replica whose lease just errored is parked before
// it may pull again, doubling per consecutive failure.  Without this, a
// crashed replica fails leases near-instantly and can cycle the pending
// queue, burning every block's attempt budget faster than the healthy
// replicas can drain it.
const (
	failureBackoffBase = 100 * time.Millisecond
	failureBackoffMax  = 2 * time.Second
)

func failureBackoff(consec int) time.Duration {
	shift := consec - 1
	if shift > 4 {
		shift = 4
	}
	if d := failureBackoffBase << uint(shift); d < failureBackoffMax {
		return d
	}
	return failureBackoffMax
}

// blockState tracks one grid cell through the lease lifecycle.
type blockState struct {
	row, col int
	want     int64   // closed-form edge count
	buf      []byte  // accepted block in the output rendering, held until merged in order
	bp       *[]byte // buf's pooled block buffer (bin output), released once merged
	done     bool
	inflight int       // outstanding leases (1 normally, 2 with a speculative duplicate)
	attempts int       // failed leases so far, judged against MaxAttempts
	issued   time.Time // earliest outstanding issue time (straggler clock)
	// Banked resume state: the complete-frame bytes salvaged from failed
	// leases of this block.  The next lease resumes at partEdges instead
	// of regenerating the whole block, and the accepted payload is the
	// bank plus the resumed tail.
	part      []byte
	partEdges int64
}

// workerState is one replica's scheduling view.
type workerState struct {
	url          string
	stats        WorkerStats
	backoffUntil time.Time // honored 429 Retry-After, or failure backoff
	consecFails  int       // consecutive failed leases (failure backoff input)
	ewma         float64   // smoothed lease seconds (0 until first success)
}

// leaseResult is one finished lease attempt before acceptance.
type leaseResult struct {
	buf     []byte  // the block in the output rendering
	bp      *[]byte // buf's pooled block buffer for a bin output; nil for text
	edges   int64
	four    int64 // the block's Σ◊, from the worker's TrailerFourSum
	dur     time.Duration
	auditCh exec.Sink // unflushed per-block audit child; flushed only on acceptance
	// Partial-lease salvage: a failed lease may still carry the complete
	// frames that reached the coordinator.  complete() banks them —
	// guarded by base matching the block's banked offset — so the next
	// attempt resumes from the frame boundary.
	base         int64  // block-local offset this lease was issued at
	partial      []byte // complete-frame bytes salvaged from a failed lease
	partialEdges int64  // edges carried by partial
}

type coordinator struct {
	p       *core.Product
	sp      spec.Spec
	out     io.Writer
	opts    Options
	render  func(dst []byte, edges []exec.Edge) []byte // text output; nil for bin
	lineMax int64                                      // widest line render emits
	rows    int
	cols    int
	traceID string
	spanSeq atomic.Uint64
	// stop cancels the run's context once the merge is decided, so no
	// outstanding lease outlives it.
	stop context.CancelFunc

	auditor *audit.Auditor
	// auditStream is the auditor's shared stream, created with the
	// coordinator so that Finalize always runs its stream checks; each
	// lease feeds its own ForShard child.
	auditStream *audit.StreamAuditor

	mu        sync.Mutex
	blocks    []*blockState
	pending   []int // block indices awaiting (re-)issue, FIFO
	workers   []*workerState
	doneCount int
	nextWrite int // next block index the ordered merge will emit
	merged    int64
	fourSum   int64 // Σ◊ over accepted blocks; 4·□(C) once every block is in
	retries   int
	failed    error // first fatal error; stops the run
}

func newCoordinator(p *core.Product, sp spec.Spec, out io.Writer, rows, cols int, opts Options) (*coordinator, error) {
	c := &coordinator{
		p:       p,
		sp:      sp,
		out:     out,
		opts:    opts,
		rows:    rows,
		cols:    cols,
		traceID: randHex(16),
		stop:    func() {}, // run replaces it with its context's cancel
	}
	// Every vertex id has at most the d digits of N−1, so a TSV line
	// ("v\tw\n") is at most 2d+2 bytes and an NDJSON line
	// ({"v":v,"w":w} and a newline) 2d+12.
	d := int64(len(strconv.Itoa(p.N() - 1)))
	switch opts.Format {
	case "tsv":
		c.render, c.lineMax = exec.AppendTSV, 2*d+2
	case "ndjson":
		c.render, c.lineMax = exec.AppendNDJSON, 2*d+12
	}
	if opts.Audit {
		c.auditor = audit.New(p, audit.Options{SampleEvery: opts.AuditSample})
		c.auditStream = c.auditor.Stream()
	}
	c.blocks = make([]*blockState, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			want, err := p.BlockEdgeCount(r, rows, col, cols)
			if err != nil {
				return nil, fmt.Errorf("distgen: plan block (%d,%d): %w", r, col, err)
			}
			b := &blockState{row: r, col: col, want: want}
			if want == 0 {
				// Empty stripes (cols beyond the last factor's edge count,
				// rows beyond the stream rows) complete without a lease.
				b.done = true
				c.doneCount++
			}
			c.blocks = append(c.blocks, b)
			if !b.done {
				c.pending = append(c.pending, len(c.blocks)-1)
			}
		}
	}
	c.workers = make([]*workerState, len(opts.Workers))
	for i, u := range opts.Workers {
		c.workers[i] = &workerState{url: strings.TrimRight(u, "/")}
	}
	return c, nil
}

// run drives the worker loops to completion and assembles the Result.
// The loops run under a context of their own, cancelled as soon as the
// merge is decided (every block merged, or the run failed), so an
// outstanding twin or a stalled replica never holds the result back.
func (c *coordinator) run(ctx context.Context) (*Result, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.stop = cancel
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			c.workerLoop(rctx, w)
		}(w)
	}
	wg.Wait()

	c.mu.Lock()
	err := c.failed
	if err == nil {
		err = ctx.Err() // the caller's, not the run's own cancellation
	}
	fourSum := c.fourSum
	res := &Result{
		Edges:      c.merged,
		FourCycles: fourSum / 4,
		Blocks:     len(c.blocks),
		Rows:       c.rows,
		Cols:       c.cols,
		Retries:    c.retries,
		RequestID:  c.opts.RequestID,
	}
	for _, w := range c.workers {
		st := w.stats
		st.URL = w.url
		st.EWMASeconds = w.ewma
		res.Workers = append(res.Workers, st)
	}
	c.mu.Unlock()
	if err != nil {
		return res, err
	}
	// Reassembled total against the closed form: the per-block checks
	// make a mismatch here unreachable, which is exactly why it is
	// checked — it would mean the merge itself lost or duplicated a
	// block.
	if res.Edges != c.p.NumEdges() {
		return res, fmt.Errorf("distgen: merged %d edges, closed form says %d", res.Edges, c.p.NumEdges())
	}
	if c.auditor != nil {
		// The fleet already priced every edge: the audit's edge route is
		// the leases' Σ◊, so the coordinator never walks the product.
		c.auditor.SetEdgeFourSum(fourSum)
		report := c.auditor.Finalize()
		res.AuditChecks = report.Checks
		res.AuditViolations = len(report.Violations)
		if aerr := report.Err(); aerr != nil {
			return res, aerr
		}
	}
	// Audited or not, the fleet's 4-cycle count must be the closed form.
	// The sum is compared whole: Σ/4 would accept a sum off by up to 3.
	if want := 4 * c.p.GlobalFourCycles(); fourSum != want {
		return res, fmt.Errorf("%w: leases' Σ◊ = %d, closed form 4·□ = %d", audit.ErrViolation, fourSum, want)
	}
	return res, nil
}

// workerLoop pulls blocks for one replica until the run completes or
// fails.  Pull-based dispatch is the rebalancing: a fast replica returns
// for its next block sooner, so remaining leases flow toward it without
// any explicit weighting.
func (c *coordinator) workerLoop(ctx context.Context, w *workerState) {
	for {
		bi, speculative, ok := c.next(ctx, w)
		if !ok {
			return
		}
		b := c.blocks[bi]
		// Snapshot the banked resume state at issue time: the lease asks
		// the worker for the block's tail from `base`, and acceptance
		// re-checks the bank against the same snapshot.
		c.mu.Lock()
		base, banked := b.partEdges, b.part
		c.mu.Unlock()
		if base > 0 {
			mLeasesResumed.Inc()
		}
		gWorkersBusy.Add(1)
		res, err := c.lease(ctx, w, b, base, banked)
		gWorkersBusy.Add(-1)
		c.complete(w, bi, speculative, res, err)
	}
}

// next blocks until there is work for w (or the run is over): a pending
// block, or — with the queue drained — a straggling outstanding lease
// worth duplicating.  Workers parked by 429 wait out their backoff here
// without consuming a block.
func (c *coordinator) next(ctx context.Context, w *workerState) (bi int, speculative bool, ok bool) {
	for {
		c.mu.Lock()
		if c.failed != nil || c.doneCount == len(c.blocks) || ctx.Err() != nil {
			c.mu.Unlock()
			return 0, false, false
		}
		now := time.Now()
		if now.After(w.backoffUntil) {
			if len(c.pending) > 0 {
				bi = c.pending[0]
				c.pending = c.pending[1:]
				b := c.blocks[bi]
				b.inflight++
				b.issued = now
				c.mu.Unlock()
				return bi, false, true
			}
			if bi, ok = c.stragglerLocked(now); ok {
				c.blocks[bi].inflight++
				c.retries++
				c.mu.Unlock()
				mLeasesSpec.Inc()
				obs.Flight.RecordNote(obs.FlightInfo, "distgen", "speculative lease",
					int64(bi), 0, c.opts.RequestID)
				return bi, true, true
			}
		}
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, false, false
		case <-time.After(pollInterval):
		}
	}
}

// stragglerLocked picks the oldest outstanding lease that has exceeded
// speculativeFactor × the EWMA lease duration, if any; only single-
// inflight blocks qualify (one speculative duplicate at a time).
// Caller holds c.mu.
func (c *coordinator) stragglerLocked(now time.Time) (int, bool) {
	ewma := 0.0
	for _, w := range c.workers {
		if w.ewma > ewma {
			ewma = w.ewma
		}
	}
	if ewma == 0 {
		return 0, false // no completed lease yet: no straggler baseline
	}
	threshold := time.Duration(speculativeFactor * ewma * float64(time.Second))
	best, bestAge := -1, time.Duration(0)
	for i, b := range c.blocks {
		if b.done || b.inflight != 1 {
			continue
		}
		if age := now.Sub(b.issued); age > threshold && age > bestAge {
			best, bestAge = i, age
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// backoffError marks a 429 so complete can park the worker instead of
// charging the block an attempt.
type backoffError struct {
	until time.Time
}

func (e *backoffError) Error() string {
	return "distgen: worker saturated until " + e.until.Format(time.RFC3339)
}

// parseRetryAfter parses a Retry-After header in either RFC 9110 form —
// delta-seconds or HTTP-date — clamping to a minimum of one second
// (which also covers absent, malformed or already-elapsed values).
func parseRetryAfter(h string, now time.Time) time.Duration {
	var d time.Duration
	if secs, err := strconv.Atoi(h); err == nil {
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(h); err == nil {
		d = t.Sub(now)
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// leaseBytesPerEdge bounds an honest lease body per edge.  A frame of
// c ≤ wire.FrameEdges edges encodes to at most 12 + 20c bytes (a
// two-byte count, a ten-byte start, two ten-byte varints per edge), so
// at most 32 bytes an edge; 40 is that worst case plus slack.
const leaseBytesPerEdge = 40

// decodeStep is how many body bytes the receive loop lets arrive between
// two decodes: enough to amortize a wire.Decode call, few enough that
// decoding overlaps the transfer.
const decodeStep = 64 << 10

// blockPool recycles block buffers across leases and runs.  A lease body
// is received into one, which goes back once its block is merged (bin)
// or rendered (text), so a warm run allocates no body bytes.
var blockPool = sync.Pool{New: func() any { return new([]byte) }}

// releaseBlock returns a block buffer to blockPool; nil is a no-op.
func releaseBlock(bp *[]byte) {
	if bp != nil {
		*bp = (*bp)[:0]
		blockPool.Put(bp)
	}
}

// lease executes one POST /v1/leases round trip for block b against w:
// issue with the run's correlation identity, receive the payload (at
// most its closed-form ceiling) while decoding its frames — feeding the
// un-merged audit child when auditing and rendering the output when it
// is text — then verify the trailer, check the closed-form count, and
// read the block's Σ◊ trailer.  Any discrepancy is an error — the
// worker is not trusted, the closed forms are; a missing or malformed
// Σ◊ fails the lease, and a wrong one fails the run's final 4·□ check.
//
// base/banked are the block's resume snapshot: the worker is asked for
// the tail from block-local offset base, and the accepted payload is
// banked + tail — which the offset-deterministic framing makes
// byte-identical to an uninterrupted lease.  A failed lease returns its
// salvageable complete-frame prefix alongside the error.
func (c *coordinator) lease(ctx context.Context, w *workerState, b *blockState, base int64, banked []byte) (*leaseResult, error) {
	mLeasesIssued.Inc()
	lctx, cancel := context.WithTimeout(ctx, c.opts.LeaseTimeout)
	defer cancel()
	body := fmt.Sprintf(
		`{"factors":%s,"mode":%q,"seed":%d,"row":%d,"rows":%d,"col":%d,"cols":%d,"format":"bin","offset":%d}`,
		factorsJSON(c.sp.Factors), c.sp.Mode, c.sp.Seed, b.row, c.rows, b.col, c.cols, base)
	req, err := http.NewRequestWithContext(lctx, http.MethodPost, w.url+"/v1/leases", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Satellite contract: one dist-gen run correlates across every
	// replica — same request id, same trace id, fresh span per lease.
	req.Header.Set(wire.HeaderRequestID, c.opts.RequestID)
	req.Header.Set(wire.HeaderTraceparent,
		fmt.Sprintf("00-%s-%016x-01", c.traceID, c.spanSeq.Add(1)))
	start := time.Now()
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		// Bounded like the error path below: a 429 body that never ends
		// must not hold the worker.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		now := time.Now()
		d := parseRetryAfter(resp.Header.Get("Retry-After"), now)
		// The floor only raises the park; a server asking for longer is
		// honored (it knows its own saturation better than our default).
		if f := c.opts.backoffFloor; d < f {
			d = f
		}
		return nil, &backoffError{until: now.Add(d)}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("distgen: worker %s: lease (%d,%d): status %d: %s",
			w.url, b.row, b.col, resp.StatusCode, bytes.TrimSpace(msg))
	}
	n := b.want - base
	var auditCh exec.Sink
	if c.auditStream != nil {
		auditCh = c.auditStream.ForShard()
	}
	rx, err := c.receive(resp.Body, banked, leaseBytesPerEdge*n, b.want, auditCh)
	st := resp.Trailer.Get(wire.TrailerStatus)
	switch {
	case rx.bad != nil:
		err = rx.bad // a malformed frame banks nothing
	case err != nil:
		return rx.salvage(len(banked), base, n),
			fmt.Errorf("distgen: worker %s: lease (%d,%d): read: %w", w.url, b.row, b.col, err)
	case st != "complete":
		return rx.salvage(len(banked), base, n),
			fmt.Errorf("distgen: worker %s: lease (%d,%d): trailer status %q", w.url, b.row, b.col, st)
	case rx.done != len(*rx.bp):
		// A complete lease frames its whole block from offset 0; the
		// truncated tail a dropped lease may leave is an error here.
		err = fmt.Errorf("truncated payload: %d trailing bytes after the last complete frame", len(*rx.bp)-rx.done)
	case rx.edges != b.want:
		err = fmt.Errorf("streamed %d edges, closed form says %d", rx.edges, b.want)
	}
	var four int64
	if err == nil {
		if four, err = strconv.ParseInt(resp.Trailer.Get(wire.TrailerFourSum), 10, 64); err != nil {
			err = fmt.Errorf("trailer %s: %w", wire.TrailerFourSum, err)
		}
	}
	if err != nil {
		releaseBlock(rx.bp)
		return nil, fmt.Errorf("distgen: worker %s: lease (%d,%d): %w", w.url, b.row, b.col, err)
	}
	res := c.result(rx)
	res.four, res.dur, res.base, res.auditCh = four, time.Since(start), base, auditCh
	return res, nil
}

// factorsJSON renders a factor list as a JSON string array (factor specs
// use a charset with no JSON metacharacters, but quote defensively).
func factorsJSON(fs []string) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, f := range fs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Quote(f))
	}
	sb.WriteByte(']')
	return sb.String()
}

// received is one lease body as the receive loop left it.
type received struct {
	bp    *[]byte // pooled block buffer: the banked frames, then the body
	done  int     // length of its complete-frame prefix
	edges int64   // edges in that prefix, from block offset 0
	text  []byte  // their rendering, for a text output
	bad   error   // malformed framing, which stopped the read
}

// receive reads a lease body into a pooled block buffer headed by the
// banked frames, and decodes the buffer's complete frames with
// wire.Decode as it fills — once decodeStep bytes have arrived since the
// last decode, and at the end — into auditCh when non-nil and, for a
// text output, into a rendering presized for want edges.  Decoding
// starts at block offset 0, so the same pass re-verifies the bank and
// enforces frame contiguity.  The buffer grows by doubling, never past
// the bank plus ceiling+1 bytes.  err is the read's error, or the
// ceiling's once the body passes it (the byte past the ceiling is
// dropped); a malformed frame stops the read and lands in rx.bad.
func (c *coordinator) receive(body io.Reader, banked []byte, ceiling, want int64, auditCh exec.Sink) (rx received, err error) {
	rx.bp = blockPool.Get().(*[]byte)
	buf := append((*rx.bp)[:0], banked...)
	limit := len(banked) + int(ceiling) + 1
	if c.render != nil {
		rx.text = make([]byte, 0, want*c.lineMax)
	}
	var yield func(frame []exec.Edge)
	if auditCh != nil || c.render != nil {
		fed := int64(0)
		yield = func(frame []exec.Edge) {
			// Frames past the closed form fail the lease anyway: audit
			// and render none of them, so the rendering never regrows.
			if fed += int64(len(frame)); fed > want {
				return
			}
			if auditCh != nil {
				_ = auditCh.EdgeBatch(frame) // an audit finding never aborts
			}
			if c.render != nil {
				rx.text = c.render(rx.text, frame)
			}
		}
	}
	next, fresh := int64(0), len(buf)
	for rx.bad == nil {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*cap(buf), decodeStep), limit))
			copy(grown, buf)
			buf = grown
		}
		n, rerr := body.Read(buf[len(buf):min(cap(buf), limit)])
		buf, fresh = buf[:len(buf)+n], fresh+n
		if len(buf) == limit {
			buf = buf[:limit-1]
			rerr = fmt.Errorf("body exceeds the %d-byte ceiling of %d edges", ceiling, ceiling/leaseBytesPerEdge)
		}
		if rerr == nil && fresh < decodeStep {
			continue
		}
		var edges int64
		var trailing int
		edges, next, trailing, rx.bad = wire.Decode(buf[rx.done:], next, yield)
		rx.edges += edges
		rx.done, fresh = len(buf)-trailing, 0
		if rerr != nil {
			if rerr != io.EOF {
				err = rerr
			}
			break
		}
	}
	*rx.bp = buf
	return rx, err
}

// salvage releases a failed lease's block buffer and returns a copy of
// the complete frames its body added after the bank's head bytes, which
// the lease was issued for at block offset base.  Frames carrying more
// than the lease's n edges are dropped wholesale — resume only trusts
// bytes the wire format and the closed form can vouch for.
func (rx received) salvage(head int, base, n int64) *leaseResult {
	defer releaseBlock(rx.bp)
	edges := rx.edges - base
	if edges <= 0 || edges > n {
		return nil
	}
	return &leaseResult{base: base, partial: append([]byte(nil), (*rx.bp)[head:rx.done]...), partialEdges: edges}
}

// result hands a verified block over as a lease result.  A bin output
// is the block buffer itself, which goes back to the pool once merged;
// a text output is the rendering, and the buffer goes back now.
func (c *coordinator) result(rx received) *leaseResult {
	if c.render == nil {
		return &leaseResult{buf: *rx.bp, bp: rx.bp, edges: rx.edges}
	}
	releaseBlock(rx.bp)
	return &leaseResult{buf: rx.text, edges: rx.edges}
}

// complete books one lease outcome: accept the first result for a block
// (dedup — later duplicates are dropped before output, audit or the Σ◊
// tally), merge accepted blocks in (row, col)-major order, re-queue
// failed blocks, and park 429'd workers.  Once the merge is decided it
// stops the run, cancelling every outstanding lease.
func (c *coordinator) complete(w *workerState, bi int, speculative bool, res *leaseResult, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.blocks[bi]
	b.inflight--
	switch {
	case err == nil && !b.done:
		b.done = true
		b.buf, b.bp = res.buf, res.bp
		c.fourSum += res.four
		b.part, b.partEdges = nil, 0 // the bank is folded into buf
		c.doneCount++
		w.stats.Leases++
		w.consecFails = 0
		d := res.dur.Seconds()
		if w.ewma == 0 {
			w.ewma = d
		} else {
			w.ewma = 0.7*w.ewma + 0.3*d
		}
		mBlocksDone.Inc()
		// Audit merge happens only on acceptance: the child sink carries
		// this attempt's tallies and a Flush folds them in exactly once.
		if res.auditCh != nil {
			_ = exec.Finish(res.auditCh)
		}
		c.flushLocked()
	case err == nil && b.done:
		// A duplicate (speculative or post-timeout) finishing second:
		// verified fine, but its twin already delivered the block.
		w.consecFails = 0
		releaseBlock(res.bp)
		mDuplicatesDrop.Inc()
	default:
		var be *backoffError
		if errors.As(err, &be) {
			w.stats.Backoffs++
			w.backoffUntil = be.until
			mLeasesBackoff.Inc()
			// A 429 never reached generation: re-queue without charging
			// the block an attempt.
			c.requeueLocked(bi)
		} else if b.done {
			// A twin failing after the block was delivered — often
			// cancelled because the merge was decided — is dropped like a
			// duplicate, charging neither the block nor the worker.
			mDuplicatesDrop.Inc()
		} else {
			if res != nil && res.partialEdges > 0 && b.partEdges == res.base {
				// Bank the failed lease's complete frames.  The base guard
				// keeps the bank contiguous: a speculative twin that banked
				// first makes this salvage stale, and stale partials are
				// simply dropped.
				b.part = append(b.part, res.partial...)
				b.partEdges += res.partialEdges
			}
			w.stats.Failures++
			w.consecFails++
			w.backoffUntil = time.Now().Add(failureBackoff(w.consecFails))
			b.attempts++
			mLeasesFailed.Inc()
			obs.Flight.RecordNote(obs.FlightWarn, "distgen", "lease failed",
				int64(bi), int64(b.attempts), err.Error())
			if b.attempts >= c.opts.MaxAttempts {
				if c.failed == nil {
					c.failed = fmt.Errorf("%w: block (%d,%d) after %d attempts, last: %v",
						ErrExhausted, b.row, b.col, b.attempts, err)
				}
			} else {
				c.retries++
				mLeasesRetried.Inc()
				c.requeueLocked(bi)
			}
		}
	}
	if c.failed != nil || c.nextWrite == len(c.blocks) {
		c.stop()
	}
}

// requeueLocked puts a block back on the pending queue unless it is done
// or another lease for it is still outstanding (that lease's completion
// will re-queue if it also fails).  Caller holds c.mu.
func (c *coordinator) requeueLocked(bi int) {
	b := c.blocks[bi]
	if b.done || b.inflight > 0 {
		return
	}
	c.pending = append(c.pending, bi)
}

// flushLocked advances the ordered merge: every done-but-unmerged block
// at the write frontier streams to out and releases its buffer.  Caller
// holds c.mu.
func (c *coordinator) flushLocked() {
	for c.nextWrite < len(c.blocks) {
		b := c.blocks[c.nextWrite]
		if !b.done {
			return
		}
		if len(b.buf) > 0 {
			if _, err := c.out.Write(b.buf); err != nil && c.failed == nil {
				c.failed = fmt.Errorf("distgen: write merged output: %w", err)
			}
		}
		c.merged += b.want
		mEdgesMerged.Add(b.want)
		releaseBlock(b.bp)
		b.buf, b.bp = nil, nil
		c.nextWrite++
	}
}
