package audit

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kronbip/internal/core"
	"kronbip/internal/exec"
)

// StreamAuditor is an exec.Sink that audits the edge stream itself:
// it counts every edge (the total must land exactly on NumEdges()) and
// membership-checks every sampleEvery-th edge against the factors —
// HasEdge (O(log d), no materialization) plus the bipartition crossing.
//
// The top-level auditor is safe for concurrent writers (atomic
// counters); for sharded streams prefer one ForShard child per shard,
// which accumulates locally and merges on Flush — the same batching
// contract the obs per-shard counters follow.
type StreamAuditor struct {
	p           *core.Product
	sampleEvery int64

	edges   atomic.Int64
	sampled atomic.Int64
	bad     atomic.Int64
	dropped atomic.Int64 // InjectDrop corruption (tests, -audit negative paths)

	mu       sync.Mutex
	firstBad string
}

// NewStream builds a stream auditor for p checking every sampleEvery-th
// edge (<= 0 selects the Options default of 1024).
func NewStream(p *core.Product, sampleEvery int) *StreamAuditor {
	if sampleEvery <= 0 {
		sampleEvery = Options{}.withDefaults().SampleEvery
	}
	return &StreamAuditor{p: p, sampleEvery: int64(sampleEvery)}
}

// EdgeBatch audits a whole batch: one atomic add for the count, then
// membership checks only at the sampled ordinals inside the batch, the
// stream's sampleEvery-th, 2·sampleEvery-th, … edges wherever the batch
// boundaries fall.  It never returns an error: a bad edge is a finding
// to report at Finalize, not a reason to abort the stream mid-run.
func (s *StreamAuditor) EdgeBatch(batch []exec.Edge) error {
	n := int64(len(batch))
	hi := s.edges.Add(n)
	base := hi - n // edges seen before this batch
	var sampled int64
	// First in-batch index (0-based) whose 1-based global ordinal is a
	// multiple of sampleEvery.
	for i := int(s.sampleEvery - base%s.sampleEvery - 1); i < len(batch); i += int(s.sampleEvery) {
		sampled++
		s.checkEdge(batch[i].V, batch[i].W)
	}
	if sampled > 0 {
		s.sampled.Add(sampled)
		mSampled.Add(sampled)
	}
	return nil
}

// EdgeRun audits one run of a run walk (core.Run) as EdgeBatch audits
// the same edges: one atomic add for the count, then membership checks
// only at the sampled ordinals inside the run, each edge rebuilt from
// the run's stripe.
func (s *StreamAuditor) EdgeRun(r core.Run) {
	n := int64(r.Hi - r.Lo)
	hi := s.edges.Add(n)
	base := hi - n
	var sampled int64
	for i := s.sampleEvery - base%s.sampleEvery - 1; i < n; i += s.sampleEvery {
		x, y := r.Stripe.Edge(r.Lo + int(i))
		sampled++
		s.checkEdge(r.V+x, r.W+y)
	}
	if sampled > 0 {
		s.sampled.Add(sampled)
		mSampled.Add(sampled)
	}
}

// Edges returns the number of edges seen so far (before InjectDrop
// adjustment).
func (s *StreamAuditor) Edges() int64 { return s.edges.Load() }

// Partial returns the stream-level tallies so far — membership checks
// run and violations among them — without the end-of-stream checks a
// Finalize would add.  This is what an aborted audited stream can still
// report honestly: the count invariant is unjudgeable mid-stream, the
// per-edge membership verdicts are not.
func (s *StreamAuditor) Partial() (checks, violations int64) {
	return s.sampled.Load(), s.bad.Load()
}

// InjectDrop makes the auditor behave as if n streamed edges had been
// lost — the corruption hook behind the negative tests and the CLI's
// -audit-inject-drop flag.  The count check must then fail.
func (s *StreamAuditor) InjectDrop(n int64) { s.dropped.Add(n) }

// checkEdge verifies one edge is a real product edge crossing the
// bipartition, recording the first offender verbatim.
func (s *StreamAuditor) checkEdge(v, w int) {
	ok := v >= 0 && w >= 0 && v < s.p.N() && w < s.p.N() &&
		s.p.HasEdge(v, w) && s.p.SideOf(v) != s.p.SideOf(w)
	if ok {
		return
	}
	s.bad.Add(1)
	s.mu.Lock()
	if s.firstBad == "" {
		s.firstBad = fmt.Sprintf("edge {%d,%d} is not a bipartition-crossing product edge", v, w)
	}
	s.mu.Unlock()
}

// ForShard returns a per-shard child sink accumulating locally; its
// Flush merges into the parent.  Aborted shards may skip Flush, which
// under-counts — exactly what the count check should then report.
func (s *StreamAuditor) ForShard() exec.Sink { return &shardAuditor{parent: s} }

// finalize books the stream checks into r.
func (s *StreamAuditor) finalize(r *Report) {
	seen := s.edges.Load() - s.dropped.Load()
	want := s.p.NumEdges()
	r.record("stream.count", seen == want,
		fmt.Sprintf("streamed %d edges, closed form says %d", seen, want))
	detail := s.firstBad
	if detail == "" {
		detail = "no offender recorded"
	}
	r.record("stream.membership", s.bad.Load() == 0,
		fmt.Sprintf("%d of %d sampled edges failed membership; first: %s",
			s.bad.Load(), s.sampled.Load(), detail))
}

// shardAuditor is the per-shard child: local counters, merge on Flush.
type shardAuditor struct {
	parent   *StreamAuditor
	edges    int64
	sampled  int64
	bad      int64
	firstBad string
}

// EdgeBatch audits a whole batch with shard-local accounting: count the
// batch in one add, membership-check only the sampled ordinals of the
// shard's stream, at the parent's cadence.
func (s *shardAuditor) EdgeBatch(batch []exec.Edge) error {
	se := s.parent.sampleEvery
	for i := int(se - s.edges%se - 1); i < len(batch); i += int(se) {
		s.sampled++
		s.checkEdge(batch[i].V, batch[i].W)
	}
	s.edges += int64(len(batch))
	return nil
}

// checkEdge is the shard-local membership probe.
func (s *shardAuditor) checkEdge(v, w int) {
	p := s.parent.p
	if !(v >= 0 && w >= 0 && v < p.N() && w < p.N() &&
		p.HasEdge(v, w) && p.SideOf(v) != p.SideOf(w)) {
		s.bad++
		if s.firstBad == "" {
			s.firstBad = fmt.Sprintf("edge {%d,%d} is not a bipartition-crossing product edge", v, w)
		}
	}
}

// Flush merges the shard's tallies into the parent.
func (s *shardAuditor) Flush() error {
	s.parent.edges.Add(s.edges)
	s.parent.sampled.Add(s.sampled)
	mSampled.Add(s.sampled)
	if s.bad > 0 {
		s.parent.bad.Add(s.bad)
		s.parent.mu.Lock()
		if s.parent.firstBad == "" {
			s.parent.firstBad = s.firstBad
		}
		s.parent.mu.Unlock()
	}
	s.edges, s.sampled, s.bad = 0, 0, 0
	return nil
}
