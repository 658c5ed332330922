package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"kronbip/internal/audit"
	"kronbip/internal/core"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
	"kronbip/internal/spec"
)

// Admission-control sentinels, mapped to HTTP statuses by the handlers.
var (
	// ErrSaturated: every walk slot is taken — 429 with Retry-After.
	ErrSaturated = errors.New("serve: walk capacity is full")
	// ErrTooLarge: closed-form |E_C| exceeds the per-job budget — 413.
	ErrTooLarge = errors.New("serve: spec exceeds the per-job edge budget")
	// ErrDraining: the server is shutting down — 503.
	ErrDraining = errors.New("serve: server is shutting down")
)

// JobState is a job's position in its lifecycle.
type JobState int32

// Job lifecycle states.  An unaudited job is done at admission; an
// audited one is running until its checks report.
const (
	StateRunning JobState = iota
	StateDone
	StateFailed
	StateCancelled
)

func (s JobState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int32(s))
	}
}

func (s JobState) terminal() bool { return s >= StateDone }

// Job is one submitted spec.  A job is priced, not generated: its edge
// count and global 4-cycle count are closed forms of the cached factor
// state, known at admission, and its edge list is re-derived by every
// stream.  The product descriptor and the identity fields are immutable
// after submission; the mutable lifecycle fields are guarded by mu.
type Job struct {
	id      string
	seq     int // numeric id, the job's timeline lane
	spec    spec.Spec
	product *core.Product
	auditOn bool
	// Correlation identity of the submitting request: echoed in job
	// status and stamped on the job's timeline-lane event, so a
	// distributed trace reaching POST /v1/jobs can be followed into the
	// job it admitted.
	reqID   string
	traceID string
	// idemKey is the client's idempotency key, when one was supplied at
	// submission; the manager's idem index maps it back to this job until
	// eviction.
	idemKey string
	// ctx is cancelled by DELETE, eviction or manager close — NOT by
	// completion, so edge-stream requests for a finished job keep
	// working until the job is evicted.
	ctx    context.Context
	cancel context.CancelFunc

	mu              sync.Mutex
	state           JobState
	errMsg          string
	created         time.Time
	finished        time.Time
	auditChecks     int
	auditViolations int
}

// JobStatus is the wire rendering of a job.
type JobStatus struct {
	ID       string `json:"id"`
	Spec     string `json:"spec"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	NumEdges int64  `json:"num_edges"` // closed-form |E_C|
	// EdgesStreamed is the job's priced count: the closed-form |E_C|
	// that every complete stream of the job carries, known at admission.
	// It keeps its historical name and always equals NumEdges.
	EdgesStreamed    int64   `json:"edges_streamed"`
	GlobalFourCycles int64   `json:"global_four_cycles"`
	Audit            bool    `json:"audit"`
	AuditChecks      int     `json:"audit_checks,omitempty"`
	AuditViolations  int     `json:"audit_violations,omitempty"`
	Created          string  `json:"created"`
	RunSeconds       float64 `json:"run_seconds,omitempty"` // an audited job's check time
	RequestID        string  `json:"request_id,omitempty"`  // submitting request
	TraceID          string  `json:"trace_id,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:               j.id,
		Spec:             j.spec.Canonical(),
		State:            j.state.String(),
		Error:            j.errMsg,
		NumEdges:         j.product.NumEdges(),
		EdgesStreamed:    j.product.NumEdges(),
		GlobalFourCycles: j.product.GlobalFourCycles(),
		Audit:            j.auditOn,
		AuditChecks:      j.auditChecks,
		AuditViolations:  j.auditViolations,
		Created:          j.created.UTC().Format(time.RFC3339Nano),
		RequestID:        j.reqID,
		TraceID:          j.traceID,
	}
	if j.auditOn {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunSeconds = end.Sub(j.created).Seconds()
	}
	return st
}

// finish records a run's outcome; a job already terminal (cancelled
// while its checks ran) keeps its state.
func (j *Job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	switch {
	case err == nil:
		j.settleLocked(StateDone, "")
	case errors.Is(err, context.Canceled):
		j.settleLocked(StateCancelled, "cancelled")
	default:
		j.settleLocked(StateFailed, err.Error())
	}
}

// settleLocked moves the job to a terminal state and books it; the
// first terminal transition stamps finished.  Caller holds j.mu.
func (j *Job) settleLocked(to JobState, msg string) {
	if !j.state.terminal() {
		j.finished = time.Now()
	}
	j.state, j.errMsg = to, msg
	edges := j.product.NumEdges()
	switch to {
	case StateDone:
		mJobsDone.Inc()
		obs.Flight.RecordNote(obs.FlightInfo, "job", "job done", int64(j.seq), edges, j.reqID)
	case StateCancelled:
		mJobsCancel.Inc()
		obs.Flight.RecordNote(obs.FlightInfo, "job", "job cancelled", int64(j.seq), edges, j.reqID)
	default:
		mJobsFailed.Inc()
		obs.Flight.RecordNote(obs.FlightError, "job", "job failed", int64(j.seq), edges, msg)
	}
}

// running reports whether the job's audit is still in flight.
func (j *Job) running() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.state.terminal()
}

// lane opens the job's timeline-lane event, which carries the
// submitting request's identity so a trace id seen at POST /v1/jobs can
// be grepped out of the journal or read in the Chrome trace args pane;
// nil while the timeline is off.
func (j *Job) lane() timeline.Done {
	if !timeline.Enabled() {
		return nil
	}
	return timeline.BeginNote(timeline.CatJob, "serve.job", j.seq,
		"req_id="+j.reqID+" trace_id="+j.traceID)
}

// manager owns the job index: admission (the edge budget, and the walk
// cap for audited jobs), the audited runs in flight, and retention.
type manager struct {
	cfg        Config
	walks      walkCap // Config.MaxWalks slots, shared with streams and leases
	baseCtx    context.Context
	baseCancel context.CancelFunc
	audits     sync.WaitGroup // audited runs in flight; drain waits for them

	mu     sync.Mutex
	jobs   map[string]*Job
	idem   map[string]*Job // idempotency key → the job it admitted
	order  []*Job          // submission order, scanned for retention eviction
	nextID int
	closed bool

	// runHook, when non-nil, runs at the start of every audited run,
	// before the checks — the test seam for holding an audit open or
	// failing it on demand.
	runHook func(ctx context.Context, j *Job) error
}

func newManager(cfg Config) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &manager{
		cfg:        cfg,
		walks:      make(walkCap, cfg.MaxWalks),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		idem:       make(map[string]*Job),
	}
}

// submit admits a job or rejects it: ErrTooLarge when the closed-form
// edge count busts the budget, ErrDraining during shutdown, and
// ErrSaturated when an audited job finds every walk slot taken.  An
// admitted unaudited job is done on return; an audited one holds a
// walk slot and runs its checks on its own goroutine.  A non-empty
// idemKey already bound to a retained job short-circuits to that job
// with existing=true — the at-most-once half of the coordinator's retry
// contract: a resubmission after a dropped response must not admit the
// work twice.  Keys bind only on successful admission (a 429/413 retry
// is a fresh attempt) and unbind when the job is evicted.
func (m *manager) submit(sp spec.Spec, p *core.Product, auditOn bool, idemKey string, ri requestInfo) (j *Job, existing bool, err error) {
	if m.cfg.MaxEdges > 0 && p.NumEdges() > m.cfg.MaxEdges {
		mRejected.Inc()
		obs.Flight.RecordNote(obs.FlightWarn, "job", "reject too-large", p.NumEdges(), m.cfg.MaxEdges, ri.id)
		return nil, false, fmt.Errorf("%w: |E_C|=%d > budget %d", ErrTooLarge, p.NumEdges(), m.cfg.MaxEdges)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		mRejected.Inc()
		obs.Flight.RecordNote(obs.FlightWarn, "job", "reject draining", 0, 0, ri.id)
		return nil, false, ErrDraining
	}
	if prior, ok := m.idem[idemKey]; ok { // "" never binds
		mIdemReplays.Inc()
		obs.Flight.RecordNote(obs.FlightInfo, "job", "idem replay", int64(prior.seq), 0, ri.id)
		return prior, true, nil
	}
	if auditOn && !m.walks.tryAcquire() {
		mRejected.Inc()
		obs.Flight.RecordNote(obs.FlightWarn, "job", "reject saturated", int64(m.cfg.MaxWalks), 0, ri.id)
		return nil, false, ErrSaturated
	}
	m.evictLocked()
	m.nextID++
	jctx, jcancel := context.WithCancel(m.baseCtx)
	j = &Job{
		id:      fmt.Sprintf("j%d", m.nextID),
		seq:     m.nextID,
		spec:    sp,
		product: p,
		auditOn: auditOn,
		reqID:   ri.id,
		traceID: ri.traceID,
		idemKey: idemKey,
		ctx:     jctx,
		cancel:  jcancel,
		state:   StateRunning,
		created: time.Now(),
	}
	m.jobs[j.id] = j
	if idemKey != "" {
		m.idem[idemKey] = j
	}
	m.order = append(m.order, j)
	mSubmitted.Inc()
	obs.Flight.RecordNote(obs.FlightInfo, "job", "job submitted", int64(j.seq), p.NumEdges(), ri.id)
	if auditOn {
		m.audits.Add(1)
		go m.audit(j)
		return j, false, nil
	}
	if end := j.lane(); end != nil {
		end(nil)
	}
	j.finish(nil)
	return j, false, nil
}

// evictLocked makes room for one more job: it drops the oldest terminal
// jobs until fewer than Retention remain, releasing their contexts.
// Running jobs are never evicted.  Caller holds m.mu.
func (m *manager) evictLocked() {
	for len(m.order) >= m.cfg.Retention {
		i := slices.IndexFunc(m.order, func(j *Job) bool { return !j.running() })
		if i < 0 {
			return // everything retained is still running
		}
		j := m.order[i]
		m.order = slices.Delete(m.order, i, i+1)
		delete(m.jobs, j.id)
		if j.idemKey != "" {
			delete(m.idem, j.idemKey)
		}
		j.cancel()
	}
}

// get looks a job up by id.
func (m *manager) get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// snapshot copies the retained jobs in submission order.
func (m *manager) snapshot() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.order)
}

// list snapshots every retained job, newest first.
func (m *manager) list() []JobStatus {
	jobs := m.snapshot()
	out := make([]JobStatus, 0, len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- {
		out = append(out, jobs[i].Status())
	}
	return out
}

// cancelJob moves a job to cancelled from any state and cancels its
// context: in-flight edge streams abort, later ones answer 409, and a
// running audit's report is dropped when it lands.
func (m *manager) cancelJob(j *Job) {
	j.mu.Lock()
	if j.state != StateCancelled {
		j.settleLocked(StateCancelled, "cancelled")
	}
	j.mu.Unlock()
	j.cancel()
}

// running counts the jobs whose audit is in flight, for the health
// payload.
func (m *manager) running() (n int) {
	for _, j := range m.snapshot() {
		if j.running() {
			n++
		}
	}
	return n
}

// drain stops admissions and waits for the audited runs in flight; when
// ctx expires first, the running jobs are cancelled and the ctx error
// returned.  A cancelled audit's pricing stops within 1024 prefix
// pairs and frees its walk slot, but drain returns without waiting for
// it.
func (m *manager) drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	jobs := m.snapshot()
	obs.Flight.Record(obs.FlightInfo, "serve", "drain begin", int64(len(jobs)), 0)
	done := make(chan struct{})
	go func() { m.audits.Wait(); close(done) }()
	select {
	case <-done:
		obs.Flight.Record(obs.FlightInfo, "serve", "drain done", 0, 0)
		return nil
	case <-ctx.Done():
		for _, j := range jobs {
			if j.running() {
				m.cancelJob(j)
			}
		}
		obs.Flight.Record(obs.FlightError, "serve", "drain timeout", 0, 0)
		return fmt.Errorf("serve: drain timeout: %w", ctx.Err())
	}
}

// close force-stops the manager: admissions end and every job context
// is cancelled, which aborts in-flight edge streams.  Idempotent, used
// after drain and on listener failure.
func (m *manager) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
}

// audit runs an audited job's checks while the job holds the walk slot
// taken at admission: audit.Auditor.FinalizeContext under the job's
// context without a stream, that is the degree sums, the dual-route
// 4-cycle count (the product's Σ◊ priced per prefix pair, which DELETE
// or a drain timeout stops), the spot checks and Thm. 7.  The stream checks
// (stream.count, stream.membership) belong to the edges that are
// actually emitted, on ?audit=1 streams.
func (m *manager) audit(j *Job) {
	defer m.audits.Done()
	defer m.walks.release()
	gJobsRunning.Add(1)
	defer gJobsRunning.Add(-1)
	obs.Flight.RecordNote(obs.FlightInfo, "job", "job running", int64(j.seq), j.product.NumEdges(), j.reqID)
	end := j.lane()
	err := m.runAudit(j)
	if end != nil {
		end(err)
	}
	j.finish(err)
}

func (m *manager) runAudit(j *Job) error {
	if m.runHook != nil {
		if err := m.runHook(j.ctx, j); err != nil {
			return err
		}
	}
	report, err := audit.New(j.product, audit.Options{}).FinalizeContext(j.ctx)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.auditChecks, j.auditViolations = report.Checks, len(report.Violations)
	j.mu.Unlock()
	return report.Err()
}
