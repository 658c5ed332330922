package timeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kronbip/internal/obs"
)

// fixedEvents builds a deterministic event set anchored at a fixed
// epoch: three shard events (one failed), one kernel call, one stage.
func fixedEvents() []Event {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int64) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	return []Event{
		{Cat: CatStage, Name: "experiments.tab1", ID: 0, OK: true, Start: at(0), Dur: 5000 * time.Microsecond},
		{Cat: CatShard, Name: "core.stream", ID: 0, OK: true, Start: at(10), Dur: 1000 * time.Microsecond},
		{Cat: CatShard, Name: "core.stream", ID: 1, OK: true, Start: at(12), Dur: 3000 * time.Microsecond},
		{Cat: CatShard, Name: "core.stream", ID: 2, OK: false, Start: at(15), Dur: 500 * time.Microsecond},
		{Cat: CatKernel, Name: "grb.mxm", ID: 0, OK: true, Start: at(20), Dur: 200 * time.Microsecond},
	}
}

const goldenTrace = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"experiments.tab1","cat":"stage","ph":"X","ts":0,"dur":5000,"pid":1,"tid":40000,"args":{"id":0,"ok":true}},
{"name":"core.stream","cat":"shard","ph":"X","ts":10,"dur":1000,"pid":1,"tid":10000,"args":{"id":0,"ok":true}},
{"name":"core.stream","cat":"shard","ph":"X","ts":12,"dur":3000,"pid":1,"tid":10001,"args":{"id":1,"ok":true}},
{"name":"core.stream","cat":"shard","ph":"X","ts":15,"dur":500,"pid":1,"tid":10002,"args":{"id":2,"ok":false}},
{"name":"grb.mxm","cat":"kernel","ph":"X","ts":20,"dur":200,"pid":1,"tid":30000,"args":{"id":0,"ok":true}}
],"otherData":{"events":5,"dropped":0}}
`

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedEvents(), 0); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenTrace {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, goldenTrace)
	}
	// The document must be valid JSON in the Chrome trace object shape.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("golden output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("traceEvents = %d, want 5", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
	}
}

func TestWriteJournal(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJournal(&buf, fixedEvents(), 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("journal lines = %d, want 6:\n%s", len(lines), out)
	}
	if want := "event t_us=10 dur_us=1000 cat=shard name=core.stream id=0 ok=true"; lines[1] != want {
		t.Errorf("line 1 = %q, want %q", lines[1], want)
	}
	if want := "journal events=5 dropped=3"; lines[5] != want {
		t.Errorf("trailer = %q, want %q", lines[5], want)
	}
}

// TestEventNoteRendering: an annotated event carries its note into both
// exports; unannotated events render exactly as before (the goldens
// above pin that).
func TestEventNoteRendering(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	evs := []Event{{
		Cat: CatJob, Name: "serve.job", ID: 3, OK: true,
		Note:  `req_id=r-1 trace_id=4bf92f3577b34da6a3ce929d0e0e4736`,
		Start: epoch, Dur: time.Millisecond,
	}}
	var trace, journal bytes.Buffer
	if err := WriteChromeTrace(&trace, evs, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"note":"req_id=r-1 trace_id=4bf92f3577b34da6a3ce929d0e0e4736"`) {
		t.Errorf("chrome trace lacks the note:\n%s", trace.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("annotated trace is not valid JSON: %v", err)
	}
	if err := WriteJournal(&journal, evs, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(journal.String(), `note="req_id=r-1 trace_id=4bf92f3577b34da6a3ce929d0e0e4736"`) {
		t.Errorf("journal lacks the note:\n%s", journal.String())
	}
}

// TestBeginNote records the note through the Done closure.
func TestBeginNote(t *testing.T) {
	r := NewRecorder(8)
	end := r.BeginNote(CatJob, "serve.job", 1, "req_id=abc")
	end(nil)
	events, _ := r.Snapshot()
	if len(events) != 1 || events[0].Note != "req_id=abc" {
		t.Fatalf("events = %+v, want one with note req_id=abc", events)
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(4)
	epoch := time.Now()
	for i := 0; i < 10; i++ {
		r.Record(Event{Cat: CatShard, Name: "x", ID: i, OK: true, Start: epoch.Add(time.Duration(i) * time.Millisecond)})
	}
	events, dropped := r.Snapshot()
	if len(events) != 4 {
		t.Fatalf("retained = %d, want 4", len(events))
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	for i, ev := range events {
		if ev.ID != 6+i {
			t.Errorf("event %d has ID %d, want %d (oldest retained must be newest 4)", i, ev.ID, 6+i)
		}
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	r.Reset()
	if events, dropped := r.Snapshot(); len(events) != 0 || dropped != 0 {
		t.Errorf("after Reset: %d events, %d dropped; want 0, 0", len(events), dropped)
	}
}

func TestBeginGate(t *testing.T) {
	r := NewRecorder(8)
	end := r.Begin(CatShard, "core.stream", 3)
	end(errors.New("boom"))
	end2 := r.Begin(CatShard, "core.stream", 4)
	end2(nil)
	events, _ := r.Snapshot()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].OK || !events[1].OK {
		t.Errorf("OK flags = %v, %v; want false, true", events[0].OK, events[1].OK)
	}
	if events[0].Cat != CatShard || events[0].Name != "core.stream" || events[0].ID != 3 {
		t.Errorf("event 0 = %+v", events[0])
	}
}

func TestStatsAndPublish(t *testing.T) {
	groups := Stats(fixedEvents())
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (kernel/grb.mxm, shard/core.stream, stage/experiments.tab1)", len(groups))
	}
	// Sorted by "cat/name": kernel < shard < stage.
	if groups[0].Group() != "kernel/grb.mxm" || groups[1].Group() != "shard/core.stream" || groups[2].Group() != "stage/experiments.tab1" {
		t.Fatalf("group order = %q %q %q", groups[0].Group(), groups[1].Group(), groups[2].Group())
	}
	sh := groups[1]
	if sh.Count != 3 || sh.Failed != 1 {
		t.Errorf("shard count=%d failed=%d, want 3, 1", sh.Count, sh.Failed)
	}
	if sh.Max != 3000*time.Microsecond {
		t.Errorf("shard max = %s, want 3ms", sh.Max)
	}
	if sh.Mean != 1500*time.Microsecond {
		t.Errorf("shard mean = %s, want 1.5ms", sh.Mean)
	}
	if sh.StragglerRatio != 2.0 {
		t.Errorf("shard straggler ratio = %v, want 2.0", sh.StragglerRatio)
	}
	if sh.P50 != 1000*time.Microsecond {
		t.Errorf("shard p50 = %s, want 1ms", sh.P50)
	}

	reg := obs.NewRegistry()
	PublishStats(reg, groups, 5, 2)
	if v := reg.Gauge(`timeline.straggler_permille{group="shard/core.stream"}`).Value(); v != 2000 {
		t.Errorf("straggler gauge = %d, want 2000", v)
	}
	if v := reg.Gauge(`timeline.dur_max_us{group="shard/core.stream"}`).Value(); v != 3000 {
		t.Errorf("max gauge = %d, want 3000", v)
	}
	if v := reg.Gauge("timeline.events").Value(); v != 5 {
		t.Errorf("events gauge = %d, want 5", v)
	}
	if v := reg.Gauge("timeline.dropped").Value(); v != 2 {
		t.Errorf("dropped gauge = %d, want 2", v)
	}

	var buf bytes.Buffer
	if err := WriteSummary(&buf, groups); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "timeline shard/core.stream: n=3 fail=1") {
		t.Errorf("summary missing shard line:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "straggler=2.00x") {
		t.Errorf("summary missing straggler ratio:\n%s", buf.String())
	}
}

func TestStatsEmpty(t *testing.T) {
	if got := Stats(nil); len(got) != 0 {
		t.Errorf("Stats(nil) = %v, want empty", got)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, 0); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				end := r.Begin(CatShard, "stress", w)
				end(nil)
			}
		}(w)
	}
	wg.Wait()
	events, dropped := r.Snapshot()
	if len(events) != 128 {
		t.Errorf("retained = %d, want 128", len(events))
	}
	if got := uint64(len(events)) + dropped; got != 800 {
		t.Errorf("retained+dropped = %d, want 800", got)
	}
}

func TestFlagsStart(t *testing.T) {
	dir := t.TempDir()
	tlPath := filepath.Join(dir, "t.json")
	jPath := filepath.Join(dir, "j.log")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-timeline-out", tlPath, "-journal-out", jPath}); err != nil {
		t.Fatal(err)
	}
	if !f.Active() {
		t.Fatal("Active() = false with both flags set")
	}
	var summary bytes.Buffer
	stop, err := f.Start(&summary)
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() || !obs.Enabled() {
		t.Fatal("Start must enable timeline and obs recording")
	}
	end := Begin(CatShard, "core.stream", 0)
	end(nil)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	defer obs.SetEnabled(false)
	if Enabled() {
		t.Error("stop must disable recording")
	}

	raw, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-timeline-out is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Errorf("traceEvents = %d, want 1", len(doc.TraceEvents))
	}
	journal, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), "name=core.stream") {
		t.Errorf("journal missing event:\n%s", journal)
	}
	if !strings.Contains(summary.String(), "timeline shard/core.stream") {
		t.Errorf("summary missing group line:\n%s", summary.String())
	}
	if v := obs.Default.Gauge("timeline.events").Value(); v != 1 {
		t.Errorf("timeline.events gauge = %d, want 1", v)
	}
}

func TestFlagsInactive(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Active() {
		t.Fatal("Active() = true with no flags set")
	}
	stop, err := f.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("inactive Start must not enable recording")
	}
	if err := stop(); err != nil {
		t.Error(err)
	}
}
