package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"kronbip/internal/audit"
	"kronbip/internal/obs"
)

func TestCmdStats(t *testing.T) {
	ctx := context.Background()
	if err := cmdStats(ctx, []string{"-factor", "crown4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats(ctx, []string{"-factor", "biclique3x3", "-mode", "nonbip", "-spectral", "-diameter"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats(ctx, []string{"-factor", "nope"}); err == nil {
		t.Fatal("accepted bad factor")
	}
	// Diameter on a disconnected (relaxed) product errors cleanly.
	if err := cmdStats(ctx, []string{"-factor", "unicode", "-diameter"}); err == nil {
		t.Fatal("diameter on relaxed product should error")
	}
	// A cancelled context aborts the spectral/diameter work with ctx.Err().
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	err := cmdStats(cctx, []string{"-factor", "biclique3x3", "-mode", "nonbip", "-spectral"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stats -spectral returned %v, want context.Canceled", err)
	}
	err = cmdStats(cctx, []string{"-factor", "biclique3x3", "-mode", "nonbip", "-diameter"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stats -diameter returned %v, want context.Canceled", err)
	}
}

func TestCmdTruth(t *testing.T) {
	ctx := context.Background()
	if err := cmdTruth(ctx, []string{"-factor", "crown4", "-vertex", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTruth(ctx, []string{"-factor", "crown4", "-edge", "1,63", "-hops", "1,63"}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-factor", "crown4"},                     // nothing to query
		{"-factor", "crown4", "-vertex", "9999"},  // out of range
		{"-factor", "crown4", "-edge", "0,0"},     // non-edge
		{"-factor", "crown4", "-edge", "zap"},     // malformed
		{"-factor", "crown4", "-edge", "x,y"},     // malformed ids
		{"-factor", "crown4", "-hops", "1"},       // malformed
		{"-factor", "crown4", "-hops", "1,99999"}, // out of range
	}
	for _, args := range cases {
		if err := cmdTruth(ctx, args); err == nil {
			t.Fatalf("cmdTruth accepted %v", args)
		}
	}
	// A cancelled context aborts the distance precompute with ctx.Err().
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	err := cmdTruth(cctx, []string{"-factor", "crown4", "-hops", "1,63"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled truth -hops returned %v, want context.Canceled", err)
	}
}

func TestCmdVerify(t *testing.T) {
	ctx := context.Background()
	if err := cmdVerify(ctx, []string{"-factor", "biclique3x4", "-samples", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify(ctx, []string{"-factor", "crown3", "-samples", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify(ctx, []string{"-factor", "bogus"}); err == nil {
		t.Fatal("accepted bad factor")
	}
}

func TestCmdGenerate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	out := filepath.Join(dir, "edges.tsv")
	if err := cmdGenerate(ctx, []string{"-factor", "crown3", "-edges-out", out, "-shards", "1"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	// crown3 = C6: (2·6+6)·6 = 108 edges in mode (ii).
	if lines != 108 {
		t.Fatalf("wrote %d edges, want 108", lines)
	}
	// -offset/-limit write exactly that slice of the canonical stream; a
	// limit past the end (where offset+limit would wrap) runs to the end.
	canon := strings.SplitAfter(string(data), "\n")
	for _, c := range []struct {
		limit  string
		lo, hi int
	}{{"10", 3, 13}, {"9223372036854775807", 3, 108}} {
		rangeOut := filepath.Join(dir, "range.tsv")
		if err := cmdGenerate(ctx, []string{"-factor", "crown3", "-edges-out", rangeOut, "-offset", "3", "-limit", c.limit}); err != nil {
			t.Fatalf("-offset 3 -limit %s: %v", c.limit, err)
		}
		got, err := os.ReadFile(rangeOut)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Join(canon[c.lo:c.hi], ""); string(got) != want {
			t.Fatalf("-offset 3 -limit %s: wrote %d edges, want edges [%d,%d) of the canonical stream",
				c.limit, strings.Count(string(got), "\n"), c.lo, c.hi)
		}
	}
	// Sharded output.
	prefix := filepath.Join(dir, "sharded")
	if err := cmdGenerate(ctx, []string{"-factor", "crown3", "-edges-out", prefix, "-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < 4; s++ {
		d, err := os.ReadFile(fmt.Sprintf("%s.shard%d", prefix, s))
		if err != nil {
			t.Fatal(err)
		}
		total += strings.Count(string(d), "\n")
	}
	if total != 108 {
		t.Fatalf("shards hold %d edges, want 108", total)
	}
	// -shards unset with a file destination defaults to GOMAXPROCS shards.
	autoPrefix := filepath.Join(dir, "auto")
	if err := cmdGenerate(ctx, []string{"-factor", "crown3", "-edges-out", autoPrefix}); err != nil {
		t.Fatal(err)
	}
	autoShards := runtime.GOMAXPROCS(0)
	total = 0
	if autoShards == 1 {
		d, err := os.ReadFile(autoPrefix)
		if err != nil {
			t.Fatal(err)
		}
		total = strings.Count(string(d), "\n")
	} else {
		for s := 0; s < autoShards; s++ {
			d, err := os.ReadFile(fmt.Sprintf("%s.shard%d", autoPrefix, s))
			if err != nil {
				t.Fatal(err)
			}
			total += strings.Count(string(d), "\n")
		}
	}
	if total != 108 {
		t.Fatalf("auto-sharded output holds %d edges, want 108", total)
	}
	// Explicit multi-sharding without a file prefix is rejected with a
	// helpful error, not silently run single-sharded.
	if err := cmdGenerate(ctx, []string{"-factor", "crown3", "-shards", "2"}); err == nil {
		t.Fatal("accepted -shards with stdout")
	}
	if err := cmdGenerate(ctx, []string{"-factor", "bogus"}); err == nil {
		t.Fatal("accepted bad factor")
	}
	// A cancelled context aborts generation with ctx.Err().
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = cmdGenerate(cctx, []string{"-factor", "crown3", "-edges-out", filepath.Join(dir, "cancelled"), "-shards", "2"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled generate returned %v, want context.Canceled", err)
	}
}

// TestCmdGenerateMetricsOut runs an instrumented generate and asserts the
// -metrics-out snapshot holds the per-shard edge counts, pool gauges and
// stage span the observability contract promises.
func TestCmdGenerateMetricsOut(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	prefix := filepath.Join(dir, "edges")
	mpath := filepath.Join(dir, "m.json")
	err := cmdGenerate(ctx, []string{
		"-factor", "crown3", "-edges-out", prefix, "-shards", "2",
		"-metrics-out", mpath, "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
		Spans    map[string]struct {
			Count        int64   `json:"count"`
			TotalSeconds float64 `json:"total_seconds"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	// crown3 = C6 in mode (ii): 108 product edges.  The counters are
	// process-wide, so other tests may have added more — assert at least.
	if got := snap.Counters["core.stream.edges"]; got < 108 {
		t.Errorf("core.stream.edges = %d, want >= 108", got)
	}
	var shardTotal int64
	for s := 0; s < 2; s++ {
		key := fmt.Sprintf("core.stream.edges{shard=%q}", fmt.Sprint(s))
		v, ok := snap.Counters[key]
		if !ok {
			t.Errorf("snapshot missing per-shard counter %s", key)
		}
		shardTotal += v
	}
	if shardTotal < 108 {
		t.Errorf("per-shard edge counters sum to %d, want >= 108", shardTotal)
	}
	if got := snap.Counters["core.stream.shards.done"]; got < 2 {
		t.Errorf("core.stream.shards.done = %d, want >= 2", got)
	}
	if got := snap.Counters["exec.pool.tasks"]; got < 2 {
		t.Errorf("exec.pool.tasks = %d, want >= 2", got)
	}
	if _, ok := snap.Gauges["exec.pool.peak"]; !ok {
		t.Error("snapshot missing gauge exec.pool.peak")
	}
	sp, ok := snap.Spans["core.stream"]
	if !ok {
		t.Fatal("snapshot missing span core.stream")
	}
	if sp.Count < 1 || sp.TotalSeconds < 0 {
		t.Errorf("span core.stream = %+v, want count >= 1", sp)
	}
}

// TestCmdGenerateTimelineOut runs a timeline-recorded generate and asserts
// the -timeline-out file is valid Chrome trace_event JSON carrying shard
// events, and that the straggler gauges reach both the JSON metrics
// snapshot and the Prometheus exposition.
func TestCmdGenerateTimelineOut(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	prefix := filepath.Join(dir, "edges")
	tpath := filepath.Join(dir, "t.json")
	jpath := filepath.Join(dir, "j.log")
	mpath := filepath.Join(dir, "m.json")
	err := cmdGenerate(ctx, []string{
		"-factor", "crown3", "-edges-out", prefix, "-shards", "3",
		"-timeline-out", tpath, "-journal-out", jpath, "-metrics-out", mpath, "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-timeline-out is not valid Chrome trace JSON: %v", err)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has ph=%q, want complete events (X)", ev.Name, ev.Ph)
		}
		byName[ev.Cat+"/"+ev.Name]++
	}
	if byName["shard/core.stream"] != 3 {
		t.Errorf("trace has %d shard/core.stream events, want 3 (one per shard)", byName["shard/core.stream"])
	}
	if byName["shard/exec.pool"] != 3 {
		t.Errorf("trace has %d shard/exec.pool events, want 3", byName["shard/exec.pool"])
	}

	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), "cat=shard name=core.stream") ||
		!strings.Contains(string(journal), "journal events=") {
		t.Errorf("-journal-out missing events or trailer:\n%s", journal)
	}

	// Straggler gauges: in the -metrics-out JSON snapshot...
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	key := `timeline.straggler_permille{group="shard/core.stream"}`
	v, ok := snap.Gauges[key]
	if !ok {
		t.Fatalf("metrics snapshot missing gauge %s (gauges: %v)", key, snap.Gauges)
	}
	if v < 1000 {
		t.Errorf("straggler ratio = %d permille, must be >= 1000 (max >= mean)", v)
	}
	if _, ok := snap.Gauges["timeline.events"]; !ok {
		t.Error("metrics snapshot missing timeline.events")
	}
	// ...and in the Prometheus exposition of the same registry.
	var prom bytes.Buffer
	if err := obs.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `timeline_straggler_permille{group="shard/core.stream"}`) {
		t.Error("Prometheus exposition missing timeline_straggler_permille series")
	}
}

// TestCmdGenerateAudit exercises the -audit positive path (clean run
// passes every theorem cross-check) and the injected-corruption negative
// path (non-nil ErrViolation, which cli.Fail turns into exit 1).
func TestCmdGenerateAudit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	if err := cmdGenerate(ctx, []string{
		"-factor", "crown3", "-edges-out", filepath.Join(dir, "clean"),
		"-shards", "2", "-audit", "-audit-sample", "1", "-quiet",
	}); err != nil {
		t.Fatalf("clean audited run failed: %v", err)
	}
	// The nonbip mode takes the other theorem family (Thm. 3/5).
	if err := cmdGenerate(ctx, []string{
		"-factor", "biclique2x3", "-mode", "nonbip",
		"-edges-out", filepath.Join(dir, "clean2"), "-shards", "2", "-audit", "-quiet",
	}); err != nil {
		t.Fatalf("clean audited nonbip run failed: %v", err)
	}

	err := cmdGenerate(ctx, []string{
		"-factor", "crown3", "-edges-out", filepath.Join(dir, "corrupt"),
		"-shards", "2", "-audit", "-audit-inject-drop", "7", "-quiet",
	})
	if !errors.Is(err, audit.ErrViolation) {
		t.Fatalf("corrupted run returned %v, want audit.ErrViolation", err)
	}
	// -audit-inject-drop alone implies auditing (the hook is useless
	// without the checks).
	err = cmdGenerate(ctx, []string{
		"-factor", "crown3", "-edges-out", filepath.Join(dir, "corrupt2"),
		"-shards", "1", "-audit-inject-drop", "1", "-quiet",
	})
	if !errors.Is(err, audit.ErrViolation) {
		t.Fatalf("drop without -audit returned %v, want audit.ErrViolation", err)
	}
}
