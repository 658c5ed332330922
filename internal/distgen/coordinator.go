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
	want     int64  // closed-form edge count
	buf      []byte // accepted payload, held until merged in order
	done     bool
	merged   bool
	inflight int       // outstanding leases (1 normally, 2 with a speculative duplicate)
	attempts int       // failed leases so far, judged against MaxAttempts
	issued   time.Time // earliest outstanding issue time (straggler clock)
	// Banked resume state (bin format only): the complete-frame bytes
	// salvaged from failed leases of this block.  The next lease resumes
	// at partEdges instead of regenerating the whole block, and the
	// accepted payload is the bank plus the resumed tail.
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
	buf     []byte
	edges   int64
	four    int64 // the block's Σ◊, from the worker's TrailerFourSum
	dur     time.Duration
	auditCh exec.Sink // unflushed per-block audit child; flushed only on acceptance
	// Partial-lease salvage (bin format only): a failed lease may still
	// carry the complete frames that reached the coordinator.  complete()
	// banks them — guarded by base matching the block's banked offset —
	// so the next attempt resumes from the frame boundary.
	base         int64  // block-local offset this lease was issued at
	partial      []byte // complete-frame bytes salvaged from a failed lease
	partialEdges int64  // edges carried by partial
}

type coordinator struct {
	p       *core.Product
	sp      spec.Spec
	out     io.Writer
	opts    Options
	rows    int
	cols    int
	traceID string
	spanSeq atomic.Uint64

	auditor *audit.Auditor
	// auditStream is materialized once here: Auditor.Stream()'s lazy init
	// is not safe under the concurrent worker loops.
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
func (c *coordinator) run(ctx context.Context) (*Result, error) {
	// Nothing pending at all (every block empty, e.g. an all-empty grid)
	// still flushes the zero-length ordered merge below.
	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			c.workerLoop(ctx, w)
		}(w)
	}
	wg.Wait()

	c.mu.Lock()
	err := c.failed
	if err == nil {
		err = ctx.Err()
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

// lease executes one POST /v1/leases round trip for block b against w:
// issue with the run's correlation identity, read the full payload,
// verify the trailer and the closed-form count, parse every edge
// (feeding the un-merged audit child when auditing), and read the
// block's Σ◊ trailer.  Any discrepancy is an error — the worker is not
// trusted, the closed forms are; a missing or malformed Σ◊ fails the
// lease, and a wrong one fails the run's final 4·□ check.
//
// base/banked are the block's resume snapshot (bin format only, both
// zero otherwise): the worker is asked for the tail from block-local
// offset base, and the accepted payload is banked + tail — which the
// offset-deterministic framing makes byte-identical to an uninterrupted
// lease.  A failed bin lease returns its salvageable complete-frame
// prefix alongside the error.
func (c *coordinator) lease(ctx context.Context, w *workerState, b *blockState, base int64, banked []byte) (*leaseResult, error) {
	mLeasesIssued.Inc()
	lctx, cancel := context.WithTimeout(ctx, c.opts.LeaseTimeout)
	defer cancel()
	body := fmt.Sprintf(
		`{"factors":%s,"mode":%q,"seed":%d,"row":%d,"rows":%d,"col":%d,"cols":%d,"format":%q,"offset":%d}`,
		factorsJSON(c.sp.Factors), c.sp.Mode, c.sp.Seed, b.row, c.rows, b.col, c.cols, c.opts.Format, base)
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
		io.Copy(io.Discard, resp.Body)
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
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return c.salvage(base, payload),
			fmt.Errorf("distgen: worker %s: lease (%d,%d): read: %w", w.url, b.row, b.col, err)
	}
	if st := resp.Trailer.Get(wire.TrailerStatus); st != "complete" {
		return c.salvage(base, payload),
			fmt.Errorf("distgen: worker %s: lease (%d,%d): trailer status %q", w.url, b.row, b.col, st)
	}
	res := &leaseResult{buf: payload, dur: time.Since(start), base: base}
	if base > 0 {
		// Reassemble the whole block: banked complete frames + resumed
		// tail.  Frame boundaries are a pure function of the offset, so
		// this is the byte stream an uninterrupted lease would have sent,
		// and the full-payload parse below re-verifies every frame of it
		// (bank included) before acceptance.
		assembled := make([]byte, 0, len(banked)+len(payload))
		assembled = append(assembled, banked...)
		assembled = append(assembled, payload...)
		res.buf = assembled
	}
	if c.auditStream != nil {
		res.auditCh = c.auditStream.ForShard()
	}
	res.edges, err = parseEdges(res.buf, c.opts.Format, res.auditCh)
	if err != nil {
		return nil, fmt.Errorf("distgen: worker %s: lease (%d,%d): %w", w.url, b.row, b.col, err)
	}
	if res.edges != b.want {
		return nil, fmt.Errorf("distgen: worker %s: lease (%d,%d): streamed %d edges, closed form says %d",
			w.url, b.row, b.col, res.edges, b.want)
	}
	if res.four, err = strconv.ParseInt(resp.Trailer.Get(wire.TrailerFourSum), 10, 64); err != nil {
		return nil, fmt.Errorf("distgen: worker %s: lease (%d,%d): trailer %s: %w",
			w.url, b.row, b.col, wire.TrailerFourSum, err)
	}
	return res, nil
}

// salvage extracts the complete-frame prefix of a failed bin lease's
// payload.  Text renderings are never salvaged (a truncated line is
// unframed), and a payload whose framing does not decode cleanly from
// the issued offset is dropped wholesale — resume only trusts bytes the
// wire format can vouch for.
func (c *coordinator) salvage(base int64, payload []byte) *leaseResult {
	if c.opts.Format != "bin" || len(payload) == 0 {
		return nil
	}
	edges, _, trailing, err := wire.Decode(payload, base, nil)
	if err != nil || edges == 0 {
		return nil
	}
	return &leaseResult{base: base, partial: payload[:len(payload)-trailing], partialEdges: edges}
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

// parseEdges walks a lease payload in the given format ("tsv", "ndjson"
// or "bin"), validating shape, counting edges and feeding them to the
// audit child when one is supplied: a bin payload a frame at a time, a
// text one an edge at a time.
func parseEdges(payload []byte, format string, auditCh exec.Sink) (int64, error) {
	if format == "bin" {
		// A whole-block payload frames from block-local offset 0; the
		// decoder enforces contiguity, and a truncated tail — tolerated
		// on the salvage path — is a hard error here.
		var yield func(frame []exec.Edge)
		if auditCh != nil {
			// The audit child samples a batch at the per-edge cadence.
			yield = func(frame []exec.Edge) { _ = exec.DeliverBatch(auditCh, frame) }
		}
		n, _, trailing, err := wire.Decode(payload, 0, yield)
		if err != nil {
			return n, err
		}
		if trailing != 0 {
			return n, fmt.Errorf("truncated payload: %d trailing bytes after the last complete frame", trailing)
		}
		return n, nil
	}
	ndjson := format == "ndjson"
	var n int64
	for len(payload) > 0 {
		nl := bytes.IndexByte(payload, '\n')
		if nl < 0 {
			return n, fmt.Errorf("truncated payload: unterminated final line")
		}
		line := payload[:nl]
		payload = payload[nl+1:]
		var v, w int
		var err error
		if ndjson {
			v, w, err = parseNDJSONEdge(line)
		} else {
			v, w, err = parseTSVEdge(line)
		}
		if err != nil {
			return n, err
		}
		n++
		if auditCh != nil {
			_ = auditCh.Edge(v, w) // StreamAuditor children never error
		}
	}
	return n, nil
}

// parseTSVEdge parses "v\tw".
func parseTSVEdge(line []byte) (int, int, error) {
	tab := bytes.IndexByte(line, '\t')
	if tab < 0 {
		return 0, 0, fmt.Errorf("bad tsv line %q", line)
	}
	v, err1 := strconv.Atoi(string(line[:tab]))
	w, err2 := strconv.Atoi(string(line[tab+1:]))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad tsv line %q", line)
	}
	return v, w, nil
}

// parseNDJSONEdge parses the serve stream's fixed rendering
// {"v":N,"w":M} positionally — the worker is ours, and a shape change
// should fail loudly here rather than be absorbed.
func parseNDJSONEdge(line []byte) (int, int, error) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"v":`))
	if !ok {
		return 0, 0, fmt.Errorf("bad ndjson line %q", line)
	}
	comma := bytes.Index(rest, []byte(`,"w":`))
	if comma < 0 || !bytes.HasSuffix(rest, []byte("}")) {
		return 0, 0, fmt.Errorf("bad ndjson line %q", line)
	}
	v, err1 := strconv.Atoi(string(rest[:comma]))
	w, err2 := strconv.Atoi(string(rest[comma+5 : len(rest)-1]))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad ndjson line %q", line)
	}
	return v, w, nil
}

// complete books one lease outcome: accept the first result for a block
// (dedup — later duplicates are dropped before output, audit or the Σ◊
// tally), merge accepted blocks in (row, col)-major order, re-queue
// failed blocks, and park 429'd workers.
func (c *coordinator) complete(w *workerState, bi int, speculative bool, res *leaseResult, err error) {
	c.mu.Lock()
	b := c.blocks[bi]
	b.inflight--
	switch {
	case err == nil && !b.done:
		b.done = true
		b.buf = res.buf
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
		} else {
			if res != nil && res.partialEdges > 0 && !b.done && b.partEdges == res.base {
				// Bank the failed lease's complete frames.  The base guard
				// keeps the bank contiguous: a speculative twin that banked
				// (or delivered) first makes this salvage stale, and stale
				// partials are simply dropped.
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
	c.mu.Unlock()
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
		b.buf = nil
		b.merged = true
		c.nextWrite++
	}
}
