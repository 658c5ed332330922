// Package audit cross-checks generated output against the paper's
// theorem-derived ground truth while it is being produced.  The
// generator never stores the product, so every global statistic it
// reports is computed from factor-only state (Thm. 3–5, 7); this
// package closes the loop by re-deriving those statistics along
// independent routes and comparing:
//
//   - degree sums: 2·|E_C| must equal (Σ d_M)(Σ d_B), the factor
//     degree-product identity behind Thm. 3;
//   - dual-route 4-cycle counts: Σ s_v (Thm. 3/4 route) must equal
//     Σ ◊_e (Thm. 5 route) — two different formula families over
//     different index sets agreeing on one number.  By default the edge
//     route prices the whole product (core's PriceBlockRangeContext):
//     within one prefix pair Thm. 5's anchor terms are constant, so the
//     sum costs one closed form per prefix pair, not a walk of every
//     edge.  A caller whose generators already priced every edge hands
//     the sum in instead (SetEdgeFourSum): distgen adds up its leases'
//     Σ◊ trailers, each priced by a worker in the pass that walked its
//     block;
//   - streamed edges: the stream must carry exactly NumEdges() edges,
//     each a real product edge crossing the bipartition (sampled
//     membership checks against HasEdge);
//   - sampled per-vertex spot checks: s_v from Thm. 3/4 against a
//     brute-force butterfly count assembled from raw factor adjacency,
//     bypassing every derived statistic;
//   - community densities (mode (ii)): Thm. 7's m_in/m_out formulas
//     against direct pair counting, plus the Cor. 1–2 density bounds.
//
// Violations surface three ways: obs counters (audit.checks,
// audit.violations), timeline events (cat "audit", one per check, OK
// false on violation), and a Report whose Err() wraps ErrViolation so
// `kronbip -audit` exits non-zero.
package audit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"kronbip/internal/core"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
)

// ErrViolation is wrapped by Report.Err when any invariant failed.
var ErrViolation = errors.New("audit: invariant violation")

// Audit metrics, published on obs.Default while instrumentation is
// enabled (check bookkeeping itself is unconditional — the auditor only
// runs when explicitly requested, so there is no disabled hot path to
// protect).
var (
	mChecks     = obs.Default.Counter("audit.checks")
	mViolations = obs.Default.Counter("audit.violations")
	mSampled    = obs.Default.Counter("audit.edges.sampled")
	mSpot       = obs.Default.Counter("audit.spot.vertices")
)

// Violation is one failed invariant check.
type Violation struct {
	Check  string // dotted check id, e.g. "stream.count"
	Detail string // what was expected vs. observed
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Report accumulates check outcomes from one audited run.
type Report struct {
	Checks     int // checks run, including skipped-as-ok sampling checks
	Violations []Violation
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when all checks passed, or an error wrapping
// ErrViolation that names the first failure.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("%w: %d of %d checks failed; first: %s",
		ErrViolation, len(r.Violations), r.Checks, r.Violations[0])
}

// WriteSummary prints one line per check outcome class plus every
// violation:
//
//	audit checks=9 violations=0
func (r *Report) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "audit checks=%d violations=%d\n", r.Checks, len(r.Violations)); err != nil {
		return err
	}
	for _, v := range r.Violations {
		if _, err := fmt.Fprintf(w, "audit VIOLATION %s\n", v); err != nil {
			return err
		}
	}
	return nil
}

// record books one check outcome into the report, the obs counters and
// the timeline.
func (r *Report) record(check string, ok bool, detail string) {
	r.Checks++
	mChecks.Inc()
	var end timeline.Done
	if timeline.Enabled() {
		end = timeline.Begin(timeline.CatAudit, "audit."+check, 0)
	}
	var err error
	if !ok {
		mViolations.Inc()
		r.Violations = append(r.Violations, Violation{Check: check, Detail: detail})
		err = ErrViolation
	}
	if end != nil {
		end(err)
	}
}

// Options tune the auditor's sampling rate; the zero value selects the
// default.
type Options struct {
	// SampleEvery checks every Nth streamed edge against HasEdge and
	// the bipartition (default 1024; 1 checks every edge).
	SampleEvery int
}

func (o Options) withDefaults() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1024
	}
	return o
}

const (
	// spotVertices is how many product vertices get the brute-force
	// Thm. 3/4 spot check.
	spotVertices = 8
	// spotBudget caps the per-vertex brute-force work, measured in
	// two-walks; over-budget vertices are skipped.
	spotBudget = 1 << 20
	// communityTop is how many top-degree vertices per factor side seed
	// the Thm. 7 community sets.
	communityTop = 2
)

// Auditor audits one product's generation run: attach Stream() as an
// edge sink (optional), then call Finalize for the full check suite.
type Auditor struct {
	p          *core.Product
	opt        Options
	streamOnce sync.Once
	stream     *StreamAuditor
	edgeFour   *int64 // Σ◊_e supplied by SetEdgeFourSum; nil walks the product
}

// New builds an auditor for p.
func New(p *core.Product, opt Options) *Auditor {
	return &Auditor{p: p, opt: opt.withDefaults()}
}

// Stream returns the auditor's shared edge sink, creating it on first
// call.  Feed it every generated edge, as batches (EdgeBatch) or as a
// run walk's runs (EdgeRun); a sharded stream gives each shard its own
// ForShard child instead.  Safe to call from concurrent shard
// goroutines, as a StreamEdgesParallelContext sinkFor does.
func (a *Auditor) Stream() *StreamAuditor {
	a.streamOnce.Do(func() { a.stream = NewStream(a.p, a.opt.SampleEvery) })
	return a.stream
}

// SetEdgeFourSum supplies Σ◊_e, the edge route's sum over every edge,
// computed elsewhere: Finalize's theorem.four_dual check then requires
// it to equal 4·□, the vertex route's Σ s_v, instead of walking the
// product.  Call it before Finalize.
func (a *Auditor) SetEdgeFourSum(sum int64) { a.edgeFour = &sum }

// Finalize runs every applicable check and returns the report.  The
// stream checks only run when Stream() was attached; the community
// check only applies to mode (ii) products.
func (a *Auditor) Finalize() *Report {
	// A background walk is never cancelled, so it cannot fail.
	r, _ := a.FinalizeContext(context.Background())
	return r
}

// FinalizeContext is Finalize under a context.  Without a supplied
// SetEdgeFourSum, theorem.four_dual prices Σ◊ over the 1×1 block grid,
// in time proportional to the product's prefix pairs; that pricing
// stops within 1024 prefix pairs of ctx's cancellation, and
// FinalizeContext then returns ctx's error and no report.
func (a *Auditor) FinalizeContext(ctx context.Context) (*Report, error) {
	r := &Report{}
	p := a.p

	// Degree-sum identity, folded level by level: Σ d_{C_1} = (Σ d_M)(Σ
	// d_{B_1}) and Σ d_{C_t} = (Σ d_{C_{t-1}} + N_{t-1})(Σ d_{B_t}) — the
	// +N is the I in (C_{t-1}+I) ⊗ B_t.  Computed from the raw factor
	// degree vectors and sizes only, independent of the NumEdges closed
	// form it is checked against.
	fs := p.Factors()
	var degSum int64
	for _, d := range fs[0].D {
		degSum += d
	}
	if p.Mode() == core.ModeSelfLoopFactor {
		degSum += int64(fs[0].N())
	}
	nPrefix := int64(fs[0].N())
	for t, f := range fs[1:] {
		if t > 0 {
			degSum += nPrefix
		}
		var sumB int64
		for _, d := range f.D {
			sumB += d
		}
		degSum *= sumB
		nPrefix *= int64(f.N())
	}
	r.record("theorem.degree_sum", 2*p.NumEdges() == degSum,
		fmt.Sprintf("2|E_C|=%d vs folded Σd_C=%d over %d factors", 2*p.NumEdges(), degSum, p.Arity()))

	// Dual-route global 4-cycles: Σ s_v (vertex route, Thm. 3/4) vs
	// Σ ◊_e (edge route, Thm. 5), each 4·□.  The sums are compared
	// whole: dividing first would accept one off by less than 4.
	v4 := 4 * p.GlobalFourCycles()
	e4, how := int64(0), "priced"
	if a.edgeFour != nil {
		e4, how = *a.edgeFour, "supplied"
	} else {
		var err error
		if e4, err = p.PriceBlockRangeContext(ctx, 0, 1, 0, 1, 0, p.NumEdges()); err != nil {
			return nil, err
		}
	}
	r.record("theorem.four_dual", e4 == v4, fmt.Sprintf("Σs_v=%d vs %s Σ◊_e=%d", v4, how, e4))

	if a.stream != nil {
		a.stream.finalize(r)
	}

	spotCheckVertices(p, spotVertices, spotBudget, r)

	// Thm. 7 is stated for the two-factor mode-(ii) product; longer
	// chains have no community ground truth to audit (yet), so the check
	// is skipped rather than failed.
	if p.Mode() == core.ModeSelfLoopFactor && p.Arity() == 2 {
		checkCommunity(p, communityTop, r)
	}
	return r, nil
}

// feq compares densities with the same tolerance the Thm. 7 experiment
// uses for its bound checks.
func fgeq(a, b float64) bool { return a >= b-1e-12 }
func fleq(a, b float64) bool { return math.IsInf(b, 1) || a <= b+1e-12 }
