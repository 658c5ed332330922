package distgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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
	want     int64  // closed-form edge count
	buf      []byte // accepted block in the output rendering, held until merged in order
	done     bool
	inflight int       // outstanding leases (1 normally, 2 with a speculative duplicate)
	attempts int       // failed leases so far, judged against MaxAttempts
	issued   time.Time // earliest outstanding issue time (straggler clock)
	// bank is the block-local edge offset the next lease resumes at: the
	// furthest frame boundary up to which a failed lease's body matched
	// the block's expected bytes.
	bank int64
	// encode makes exp, the block's expected bytes, before its first
	// lease.  Once the block is merged with no lease of it out, exp.body
	// goes back to bodyPool and exp is dropped.
	encode sync.Once
	exp    *expected
	encErr error
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
	buf  []byte // the block in the output rendering
	four int64  // the block's Σ◊, from the worker's TrailerFourSum
	dur  time.Duration
	bank int64 // a failed lease's resume offset (see blockState.bank)
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
	// block's encoding walk feeds it once.
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
		// the leases' Σ◊, so the coordinator never prices an edge.
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
		// The block's expected bytes come before its lease, so neither the
		// lease's clock nor its timeout counts the coordinator's walk.
		x, err := c.expect(ctx, b)
		if err != nil {
			c.complete(w, bi, speculative, nil, fmt.Errorf("distgen: encode block (%d,%d): %w", b.row, b.col, err))
			continue
		}
		// The lease asks the worker for the block's tail from its bank.
		c.mu.Lock()
		base := b.bank
		c.mu.Unlock()
		if base > 0 {
			mLeasesResumed.Inc()
		}
		gWorkersBusy.Add(1)
		res, err := c.lease(ctx, w, b, x, base)
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

// lease executes one POST /v1/leases round trip for block b against w:
// issue with the run's correlation identity, then check the response
// (check) against the block's expected bytes x.  Any discrepancy is an
// error — the worker is not trusted, the closed forms and the
// coordinator's own encoding of the block are; a missing or malformed
// Σ◊ fails the lease, and a wrong one fails the run's final 4·□ check.
//
// base is the block's bank: the worker is asked for the tail from
// block-local offset base, which the offset-deterministic framing makes
// byte-identical to the same bytes of an uninterrupted lease.  A failed
// lease returns its own bank alongside the error.
func (c *coordinator) lease(ctx context.Context, w *workerState, b *blockState, x *expected, base int64) (*leaseResult, error) {
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
	res, err := c.check(x, base, resp.Body, resp.Trailer)
	if err != nil {
		return res, fmt.Errorf("distgen: worker %s: lease (%d,%d): %w", w.url, b.row, b.col, err)
	}
	res.dur = time.Since(start)
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

// check verifies a lease body issued at block-local edge offset base:
// the body must be exactly the expected bytes x from base on (compare),
// its status trailer "complete" and its Σ◊ trailer an integer.  trailer
// is the response's trailer map, which the body's EOF fills in.  A
// verified block is handed over in the output rendering, which the
// coordinator made itself: the expected bytes for a bin output, else
// the text the same walk rendered.  A failed lease still returns its
// bank.
func (c *coordinator) check(x *expected, base int64, body io.Reader, trailer http.Header) (*leaseResult, error) {
	res := &leaseResult{}
	var err error
	if res.bank, err = x.compare(body, base); err != nil {
		return res, err
	}
	if st := trailer.Get(wire.TrailerStatus); st != "complete" {
		return res, fmt.Errorf("trailer status %q", st)
	}
	if res.four, err = strconv.ParseInt(trailer.Get(wire.TrailerFourSum), 10, 64); err != nil {
		return res, fmt.Errorf("trailer %s: %w", wire.TrailerFourSum, err)
	}
	res.buf = x.body
	if c.render != nil {
		res.buf = x.text
	}
	return res, nil
}

// expect returns block b's expected bytes, encoding them off the
// coordinator's mutex before the block's first lease; a twin waits for
// them.
func (c *coordinator) expect(ctx context.Context, b *blockState) (*expected, error) {
	b.encode.Do(func() { b.exp, b.encErr = c.encode(ctx, b) })
	return b.exp, b.encErr
}

// expected is one block's lease body as a correct replica sends it from
// offset 0.  bounds lists its frame boundaries in order: the block's
// start, then the end of every frame, the last being the block's end.
// text is the block's edges rendered for a text output.
type expected struct {
	body   []byte
	bounds []bound
	text   []byte
}

// bound is a frame boundary: a byte offset into the body and the
// block-local edge offset there.
type bound struct {
	at   int
	edge int64
}

// encode frames block b as a replica frames it — its run walk into a
// wire.Writer over the block's hard cuts — which fixes every byte of a
// correct lease body.  With every = 1 the Writer hands each frame over
// as it closes, which notes the frame's boundary.  The same walk feeds
// each run to the audit's stream checks, so they see every block once,
// and renders a text output's lines into a buffer presized for the
// widest line, which never regrows.
func (c *coordinator) encode(ctx context.Context, b *blockState) (*expected, error) {
	cuts, err := c.p.BlockTermEdgeStarts(b.row, c.rows, b.col, c.cols)
	if err != nil {
		return nil, err
	}
	x := &expected{bounds: []bound{{}}}
	buf := bytes.NewBuffer(getBody())
	w := wire.NewWriter(buf, cuts, 0, b.want, 1, func(edges int64) {
		x.bounds = append(x.bounds, bound{at: buf.Len(), edge: x.bounds[len(x.bounds)-1].edge + edges})
	})
	defer w.Release()
	var batch *[]exec.Edge
	if c.render != nil {
		x.text = make([]byte, 0, b.want*c.lineMax)
		batch = exec.GetEdgeBuf()
		defer exec.PutEdgeBuf(batch)
	}
	var werr error
	err = c.p.EachEdgeBlockRangeRunContext(ctx, b.row, c.rows, b.col, c.cols, 0, b.want, nil, func(r core.Run) bool {
		if werr = w.Run(r); werr != nil {
			return false
		}
		if c.auditStream != nil {
			c.auditStream.EdgeRun(r)
		}
		if batch != nil {
			for d := r.Lo; d < r.Hi; d++ {
				if len(*batch) == cap(*batch) {
					x.text, *batch = c.render(x.text, *batch), (*batch)[:0]
				}
				v, u := r.Stripe.Edge(d)
				*batch = append(*batch, exec.Edge{V: r.V + v, W: r.W + u})
			}
		}
		return true
	})
	if err == nil {
		err = werr
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return nil, err
	}
	if batch != nil {
		x.text = c.render(x.text, *batch)
	}
	x.body = buf.Bytes()
	return x, nil
}

// bodyPool recycles expected bodies across blocks and runs.  A body
// grows to the block it holds and goes back at that size, so blocks
// allocate body bytes only while the pool is cold.
var bodyPool sync.Pool

// getBody returns an empty pooled buffer, or nil.
func getBody() []byte {
	if bp, ok := bodyPool.Get().(*[]byte); ok {
		return (*bp)[:0]
	}
	return nil
}

// putBody returns a body to bodyPool; nothing may read it after.
func putBody(b []byte) { bodyPool.Put(&b) }

// readChunk is the size of the reads a lease body arrives in, each
// compared with the expected bytes before the next.
const readChunk = 64 << 10

// chunkPool recycles the read buffers of compare.
var chunkPool = sync.Pool{New: func() any { return new([readChunk]byte) }}

// compare reads a lease body issued at block-local edge offset base, a
// frame boundary, into a pooled buffer one read at a time, and compares
// each read with the expected bytes from base on.  It reads at most one
// byte past them, and stops at the first byte that differs.  It returns
// nil only when the body is exactly those bytes, and in every case the
// bank: the edge offset of the last frame boundary up to which the body
// matched, or base.
func (x *expected) compare(body io.Reader, base int64) (bank int64, err error) {
	i := sort.Search(len(x.bounds), func(i int) bool { return x.bounds[i].edge >= base })
	if i == len(x.bounds) || x.bounds[i].edge != base {
		return base, fmt.Errorf("offset %d is not a frame boundary of the block", base)
	}
	from := x.bounds[i].at
	want := x.body[from:]
	chunk := chunkPool.Get().(*[readChunk]byte)
	defer chunkPool.Put(chunk)
	n := 0 // bytes of want the body has matched
	for err == nil {
		// One byte past want tells an over-long body.
		m, rerr := body.Read(chunk[:min(len(chunk), len(want)-n+1)])
		k := min(m, len(want)-n)
		if !bytes.Equal(chunk[:k], want[n:n+k]) {
			d := 0
			for chunk[d] == want[n+d] {
				d++
			}
			n += d
			err = fmt.Errorf("byte %d of the block differs from its encoding", from+n)
			break
		}
		n += k
		switch {
		case m > k:
			err = fmt.Errorf("body runs past the block's %d bytes", len(x.body))
		case rerr == io.EOF && n < len(want):
			err = fmt.Errorf("body ends after %d of the block's %d bytes", from+n, len(x.body))
		case rerr == io.EOF:
			return x.bounds[len(x.bounds)-1].edge, nil
		case rerr != nil:
			err = fmt.Errorf("read: %w", rerr)
		}
	}
	// The last boundary inside the matched prefix.
	j := sort.Search(len(x.bounds), func(j int) bool { return x.bounds[j].at > from+n }) - 1
	return x.bounds[j].edge, err
}

// complete books one lease outcome: accept the first result for a block
// (dedup — later duplicates are dropped before output or the Σ◊
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
		b.buf = res.buf
		c.fourSum += res.four
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
		c.flushLocked()
	case err == nil && b.done:
		// A duplicate (speculative or post-timeout) finishing second:
		// verified fine, but its twin already delivered the block.
		w.consecFails = 0
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
			if res != nil && res.bank > b.bank {
				// Every byte before a bank matched the expected bytes,
				// whichever lease of the block sent it, so the furthest
				// bank is a sound resume offset.
				b.bank = res.bank
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
// at the write frontier streams to out and gives up its buffer.  Caller
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
		if b.exp != nil && b.inflight == 0 {
			// No lease of the block is out, and none will be: nothing
			// reads its expected bytes again.
			putBody(b.exp.body)
			b.exp = nil
		}
		b.buf = nil
		c.nextWrite++
	}
}
