// Package timeline is the repository's per-unit event tracer: a
// fixed-size ring buffer of begin/end events for exec shards, grb
// kernel calls, experiment stages, audit checks and serve jobs, gated
// by one process-wide atomic like the metrics layer in internal/obs.
//
// Where internal/obs aggregates (counters, histograms, span totals),
// timeline keeps the individual completions — who ran, when, for how
// long, and whether it finished cleanly — so a sharded run can be
// replayed as a timeline.  From one snapshot the package exports
//
//   - a Chrome trace_event JSON document (WriteChromeTrace) loadable in
//     chrome://tracing or Perfetto,
//   - a logfmt run journal (WriteJournal) for grepping and diffing,
//   - per-group imbalance statistics (Stats): p50/p99/max durations and
//     the max/mean "straggler ratio", publishable as obs gauges.
//
// Overhead contract (DESIGN.md §6a): recording is off by default; each
// instrumented site reads Enabled once per unit of work (shard, kernel
// call, stage — never per edge), so the disabled cost is one
// atomic load.  While enabled, one mutex-guarded ring append per unit —
// thousands of events per run, not millions — keeps the enabled cost
// far below the work each event brackets.
package timeline

import (
	"sort"
	"sync/atomic"
	"time"

	"kronbip/internal/obs"
)

// enabled is the global recording switch, mirroring obs.SetEnabled.
var enabled atomic.Bool

// SetEnabled flips event recording on or off.  The CLIs enable it when
// -timeline-out or -journal-out is set; tests may toggle it directly.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether recording is on.  Instrumented sites read it
// once per unit of work to pick a code path.
func Enabled() bool { return enabled.Load() }

// Event categories recorded by the built-in instrumentation sites.
const (
	CatShard  = "shard"  // exec pool tasks and core streaming shards
	CatKernel = "kernel" // grb kernel calls (mxm, mxv, kron)
	CatStage  = "stage"  // experiment stages
	CatAudit  = "audit"  // audit invariant checks
	CatJob    = "job"    // serve-layer generation jobs (lane = job sequence number)
)

// Event is one completed unit of work.  Events are recorded at end time
// (Start and Dur bracket the work), so an aborted unit still appears —
// with OK false — while a unit that never ran leaves no event at all.
type Event struct {
	Cat   string // one of the Cat* constants
	Name  string // dotted site name ("core.stream", "grb.mxm")
	ID    int    // shard index; 0 where there is no natural lane
	Note  string // free-form correlation annotation ("req_id=… trace_id=…"); usually empty
	OK    bool   // completed without error (kernel events record call completion)
	Start time.Time
	Dur   time.Duration
}

// DefaultCapacity is the Default recorder's ring size.  At one event
// per shard/kernel call it covers runs far beyond any realistic
// shard count; older events are overwritten (and counted as dropped)
// beyond it.
const DefaultCapacity = 1 << 16

// Recorder accumulates events in a fixed-capacity obs.Ring.  All
// methods are safe for concurrent use; the ring is allocated lazily on
// the first Record so disabled processes never pay for it.
type Recorder struct {
	ring *obs.Ring[Event]
}

// NewRecorder returns a recorder keeping the last `capacity` events;
// capacity <= 0 selects DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: obs.NewRing[Event](capacity)}
}

// Default is the process-wide recorder every built-in instrumentation
// site records to and the CLIs export from.
var Default = NewRecorder(0)

// Record appends one completed event, overwriting the oldest once the
// ring is full.
func (r *Recorder) Record(ev Event) { r.ring.Add(ev) }

// Snapshot returns the retained events sorted by start time (ties
// broken by category, name, then ID, so exports are deterministic) and
// the number of older events the ring has dropped.
func (r *Recorder) Snapshot() (events []Event, dropped uint64) {
	events, dropped = r.ring.Snapshot()
	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if !ea.Start.Equal(eb.Start) {
			return ea.Start.Before(eb.Start)
		}
		if ea.Cat != eb.Cat {
			return ea.Cat < eb.Cat
		}
		if ea.Name != eb.Name {
			return ea.Name < eb.Name
		}
		return ea.ID < eb.ID
	})
	return events, dropped
}

// Len returns the number of events currently retained.
func (r *Recorder) Len() int { return r.ring.Len() }

// Reset drops every retained event.  Intended for tests and the start
// of a flag-driven run.
func (r *Recorder) Reset() { r.ring.Reset() }

// Done finishes the event opened by Begin, stamping OK from err.
type Done func(err error)

// Begin opens an event on r; call the returned Done exactly once when
// the unit of work completes (nil err marks it OK).  Callers gate on
// Enabled themselves so the disabled path costs one atomic load:
//
//	var end timeline.Done
//	if timeline.Enabled() {
//		end = timeline.Begin(timeline.CatShard, "core.stream", s)
//	}
//	...
//	if end != nil {
//		end(err)
//	}
func (r *Recorder) Begin(cat, name string, id int) Done {
	return r.BeginNote(cat, name, id, "")
}

// BeginNote is Begin with a correlation note attached to the recorded
// event — the serve layer stamps request/trace identity onto per-job
// lane events this way, so a distributed trace id can be grepped out of
// the journal or read in the Chrome trace args pane.
func (r *Recorder) BeginNote(cat, name string, id int, note string) Done {
	start := time.Now()
	return func(err error) {
		r.Record(Event{
			Cat: cat, Name: name, ID: id, Note: note, OK: err == nil,
			Start: start, Dur: time.Since(start),
		})
	}
}

// Begin opens an event on the Default recorder; see Recorder.Begin.
func Begin(cat, name string, id int) Done {
	return Default.Begin(cat, name, id)
}

// BeginNote opens an annotated event on the Default recorder; see
// Recorder.BeginNote.
func BeginNote(cat, name string, id int, note string) Done {
	return Default.BeginNote(cat, name, id, note)
}
