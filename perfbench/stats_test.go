package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{100, 90, 90, 10}, // p90 of 100 has exactly 10 above it
		{34, 24, 100 * 24.0 / 34, 10},
		{11, 1, 100 / 11.0, 10}, // smallest count with a tail
		{5, 3, 50, 2},           // too few: median, and the count above it
		{1, 1, 50, 0},
	} {
		v, pct, beyond := tail(seq(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || beyond != tc.beyond {
			t.Errorf("tail(n=%d) = %v, p%v, %d beyond; want %v, p%v, %d",
				tc.n, v, pct, beyond, tc.value, tc.pct, tc.beyond)
		}
	}
	if v, _, _ := tail(nil); !math.IsNaN(v) {
		t.Errorf("tail(nil) = %v, want NaN", v)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, [3]float64{2.15, 4.4, 7.45}},
	} {
		q1, q2, q3, ok := quartiles(tc.data)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
}

func TestMedian(t *testing.T) {
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(4..1) = %v, want 2.5", m)
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median(5..1) = %v, want 3", m)
	}
}

func ns(x int) time.Duration { return time.Duration(x) }

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Name: "lease", Start: ns(10), End: ns(40)},
		{ID: 3, Parent: 1, Name: "lease", Start: ns(30), End: ns(60)},  // overlaps 2
		{ID: 4, Parent: 1, Name: "lease", Start: ns(90), End: ns(120)}, // spills past the parent
		{ID: 5, Parent: 2, Name: "decode", Start: ns(15), End: ns(25)}, // grandchild
	}
	self := selfTimes(spans)
	// The op's children cover [10,60) and [90,100): 60 of its 100.
	for id, want := range map[int]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
	by := map[string]layerSelf{}
	for _, l := range selfByName(spans) {
		by[l.Name] = l
	}
	if l := by["lease"]; l.Count != 3 || l.Self != 80 {
		t.Errorf("lease layer = %+v, want 3 spans, 80ns self", l)
	}
}

func TestSelfTimeNestedChildrenCoverWholeParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "body", Start: ns(0), End: ns(50)},
		{ID: 2, Parent: 1, Name: "decode", Start: ns(0), End: ns(20)},
		{ID: 3, Parent: 1, Name: "verify", Start: ns(20), End: ns(50)},
	}
	if s := selfTimes(spans)[1]; s != 0 {
		t.Errorf("self of a fully covered span = %v, want 0", s)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("op", 7, 0)
	child := tr.begin("client.submit", 7, root)
	tr.end(child)
	open := tr.begin("unfinished", 7, root)
	_ = open
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != 7 {
		t.Errorf("snapshot = %+v, want op and its closed child", got)
	}
}

func TestCompareRecordsFlagsMachineDifferences(t *testing.T) {
	fp := fingerprint{CPUModel: "cpu", NProc: 2, LoadgenGOMAXPROCS: 1, ReplicaGOMAXPROCS: 2, GoVersion: "go1", Kernel: "k"}
	a := record{Workload: "chain-bin", Seconds: 20, Fingerprint: fp,
		Metrics: map[string]metric{"edges_per_s": {100, "edges/s"}}}
	b := a
	b.Fingerprint.Commit = "other" // a different commit is what a comparison is for
	b.Metrics = map[string]metric{"edges_per_s": {110, "edges/s"}}
	lines := compareRecords(a, b)
	if len(lines) != 1 || !strings.Contains(lines[0], "x1.100") {
		t.Errorf("same machine: %q", lines)
	}
	b.Fingerprint.NProc = 4
	b.Fingerprint.CPUModel = "other cpu"
	lines = compareRecords(a, b)
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "ADVISORY") ||
		!strings.Contains(lines[0], "nproc") || !strings.Contains(lines[0], "cpu_model") {
		t.Errorf("different machine not flagged: %q", lines)
	}
}

func TestSpreadRecordsReportsQuartileSpread(t *testing.T) {
	var recs []record
	for _, v := range []float64{10, 9, 11, 12, 8} {
		recs = append(recs, record{Workload: "chain-bin", Metrics: map[string]metric{"op_p50_ms": {v, "ms"}}})
	}
	// Python: quantiles([8, 9, 10, 11, 12], n=4) = [8.5, 10, 11.5].
	lines := spreadRecords(recs)
	if len(lines) != 1 || !strings.Contains(lines[0], "median             10") || !strings.Contains(lines[0], "spread 0.3000") {
		t.Errorf("spread lines = %q", lines)
	}
	recs[1].Fingerprint.Kernel = "other"
	if lines := spreadRecords(recs); !strings.HasPrefix(lines[0], "ADVISORY") {
		t.Errorf("mixed machines not flagged: %q", lines)
	}
}
