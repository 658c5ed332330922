package audit

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/obs/timeline"
)

func products(t *testing.T) map[string]*core.Product {
	t.Helper()
	p1, err := core.New(gen.Petersen(), gen.Crown(3).Graph, core.ModeNonBipartiteFactor)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.New(gen.Hypercube(3), gen.CompleteBipartite(2, 3).Graph, core.ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Product{"mode1": p1, "mode2": p2}
}

// streamInto feeds every product edge of p through the auditor's shard
// sinks, exactly as the generator would.
func streamInto(t *testing.T, p *core.Product, a *Auditor, nshards int) {
	t.Helper()
	sinks := make([]exec.Sink, nshards)
	err := p.StreamEdgesParallelContext(context.Background(), nshards, func(shard int) exec.Sink {
		sinks[shard] = a.Stream().ForShard()
		return sinks[shard]
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		if err := exec.Finish(s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAuditCleanRun(t *testing.T) {
	for name, p := range products(t) {
		t.Run(name, func(t *testing.T) {
			a := New(p, Options{SampleEvery: 1}) // membership-check every edge
			streamInto(t, p, a, 4)
			r := a.Finalize()
			if !r.OK() {
				t.Fatalf("clean run reported violations: %v", r.Violations)
			}
			if err := r.Err(); err != nil {
				t.Fatalf("Err() = %v on clean run", err)
			}
			// mode1: degree_sum, four_dual, stream.count, stream.membership,
			// spot; mode2 adds the four community checks.
			wantChecks := 5
			if p.Mode() == core.ModeSelfLoopFactor {
				wantChecks = 9
			}
			if r.Checks != wantChecks {
				t.Errorf("Checks = %d, want %d", r.Checks, wantChecks)
			}
			var buf bytes.Buffer
			if err := r.WriteSummary(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "violations=0") {
				t.Errorf("summary = %q", buf.String())
			}
		})
	}
}

// chainProducts builds k >= 2 factor chains in both modes, so the audit
// suite exercises the folded degree-sum identity and the digit-based
// neighborhood enumeration rather than the two-factor special case.
func chainProducts(t *testing.T) map[string]*core.Product {
	t.Helper()
	p1, err := core.NewChain(gen.Petersen(), core.ModeNonBipartiteFactor,
		gen.Crown(3).Graph, gen.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.NewChain(gen.Crown(3).Graph, core.ModeSelfLoopFactor,
		gen.Crown(3).Graph, gen.Path(2), gen.Cycle(4))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Product{"mode1_k2": p1, "mode2_k3": p2}
}

func TestAuditChainCleanRun(t *testing.T) {
	for name, p := range chainProducts(t) {
		t.Run(name, func(t *testing.T) {
			a := New(p, Options{SampleEvery: 1})
			streamInto(t, p, a, 3)
			r := a.Finalize()
			if !r.OK() {
				t.Fatalf("clean chain run reported violations: %v", r.Violations)
			}
			// degree_sum, four_dual, stream.count, stream.membership, spot —
			// and nothing else: the Thm. 7 community checks are two-factor
			// only and must be skipped for chains, even in mode (ii).
			if r.Checks != 5 {
				t.Errorf("Checks = %d, want 5 (community checks must not run on a chain)", r.Checks)
			}
		})
	}
}

func TestChainBruteForceMatchesTheorem(t *testing.T) {
	for name, p := range chainProducts(t) {
		t.Run(name, func(t *testing.T) {
			for v := 0; v < p.N(); v++ {
				got, inBudget := bruteForceFourCyclesAt(p, v, 1<<22)
				if !inBudget {
					continue
				}
				if want := p.VertexFourCyclesAt(v); got != want {
					t.Fatalf("vertex %d: brute force %d, Thm. 3/4 fold %d", v, got, want)
				}
			}
		})
	}
}

func TestAuditDetectsDroppedEdges(t *testing.T) {
	p := products(t)["mode1"]
	a := New(p, Options{})
	streamInto(t, p, a, 2)
	a.Stream().InjectDrop(3)
	r := a.Finalize()
	if r.OK() {
		t.Fatal("auditor missed 3 dropped edges")
	}
	err := r.Err()
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("Err() = %v, want ErrViolation", err)
	}
	if !strings.Contains(err.Error(), "stream.count") {
		t.Errorf("Err() = %v, want a stream.count violation", err)
	}
}

func TestAuditDetectsForeignEdges(t *testing.T) {
	p := products(t)["mode2"]
	a := New(p, Options{SampleEvery: 1})
	s := a.Stream()
	// Stream the real edges, then append fabricated ones: a same-side
	// non-edge pair and an out-of-range vertex.
	streamInto(t, p, a, 1)
	if err := s.EdgeBatch([]exec.Edge{{V: 0, W: 0}, {V: -1, W: p.N() + 7}}); err != nil {
		t.Fatal(err)
	}
	s.InjectDrop(2) // keep the count check clean; membership must fail alone
	r := a.Finalize()
	found := false
	for _, v := range r.Violations {
		if v.Check == "stream.membership" {
			found = true
		}
		if v.Check == "stream.count" {
			t.Errorf("count check failed unexpectedly: %s", v)
		}
	}
	if !found {
		t.Fatalf("membership violation not reported: %v", r.Violations)
	}
}

func TestBruteForceMatchesTheorem(t *testing.T) {
	for name, p := range products(t) {
		t.Run(name, func(t *testing.T) {
			for v := 0; v < p.N(); v++ {
				got, inBudget := bruteForceFourCyclesAt(p, v, 1<<20)
				if !inBudget {
					t.Fatalf("vertex %d over budget on a toy product", v)
				}
				if want := p.VertexFourCyclesAt(v); got != want {
					t.Fatalf("vertex %d: brute force %d, Thm. 3/4 %d", v, got, want)
				}
			}
		})
	}
}

func TestSpotCheckBudget(t *testing.T) {
	p := products(t)["mode1"]
	if _, inBudget := bruteForceFourCyclesAt(p, 0, 1); inBudget {
		t.Fatal("budget 1 must skip every vertex")
	}
	r := &Report{}
	spotCheckVertices(p, 4, 1, r)
	// All skipped is still a pass (nothing checked, nothing wrong).
	if !r.OK() {
		t.Fatalf("over-budget spot check reported violations: %v", r.Violations)
	}
	if r.Checks != 1 {
		t.Errorf("Checks = %d, want 1", r.Checks)
	}
}

// TestAuditSuppliedEdgeFourSum: a supplied Σ◊_e takes the edge walk's
// place in theorem.four_dual, with the same checks run.  4·□ passes; a
// sum off by one fails that check alone, though it divides to the same □.
func TestAuditSuppliedEdgeFourSum(t *testing.T) {
	p := products(t)["mode2"]
	walked := New(p, Options{}).Finalize()
	for _, delta := range []int64{0, 1} {
		a := New(p, Options{})
		a.SetEdgeFourSum(4*p.GlobalFourCycles() + delta)
		r := a.Finalize()
		if r.Checks != walked.Checks {
			t.Fatalf("delta %d: %d checks, the walking auditor runs %d", delta, r.Checks, walked.Checks)
		}
		if delta == 0 {
			if !r.OK() {
				t.Fatalf("supplied 4·□ flagged: %v", r.Violations)
			}
			continue
		}
		if len(r.Violations) != 1 || r.Violations[0].Check != "theorem.four_dual" || !errors.Is(r.Err(), ErrViolation) {
			t.Fatalf("supplied 4·□%+d: violations %v, err %v; want theorem.four_dual alone", delta, r.Violations, r.Err())
		}
	}
}

func TestAuditEmitsTimelineEvents(t *testing.T) {
	p := products(t)["mode1"]
	rec := timeline.Default
	rec.Reset()
	timeline.SetEnabled(true)
	defer func() {
		timeline.SetEnabled(false)
		rec.Reset()
	}()
	a := New(p, Options{})
	streamInto(t, p, a, 1)
	a.Stream().InjectDrop(1)
	r := a.Finalize()
	if r.OK() {
		t.Fatal("expected a violation")
	}
	events, _ := rec.Snapshot()
	var auditEvents, failed int
	for _, ev := range events {
		if ev.Cat == timeline.CatAudit {
			auditEvents++
			if !ev.OK {
				failed++
			}
		}
	}
	if auditEvents != r.Checks {
		t.Errorf("timeline has %d audit events, report ran %d checks", auditEvents, r.Checks)
	}
	if failed != len(r.Violations) {
		t.Errorf("timeline has %d failed audit events, report has %d violations", failed, len(r.Violations))
	}
}

func TestCommunityAuditRunsOnModeII(t *testing.T) {
	p := products(t)["mode2"]
	r := &Report{}
	checkCommunity(p, 2, r)
	if !r.OK() {
		t.Fatalf("community audit flagged a clean product: %v", r.Violations)
	}
	if r.Checks != 4 {
		t.Errorf("Checks = %d, want 4 (m_in, m_out, cor1, cor2)", r.Checks)
	}
}
