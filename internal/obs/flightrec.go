package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// FlightRecorder is the always-on post-mortem trail: a fixed-size ring
// of timestamped control-plane events (job lifecycle, admission
// decisions, SLO transitions, request records, signal handling,
// periodic metric snapshots) that the process can dump when something
// goes wrong — SIGQUIT, GET /debug/flightrecorder, or a panic on its
// way up.  Unlike the metrics registry (aggregates, no ordering) and
// the timeline (opt-in, per-shard data plane), the recorder is cheap
// enough to leave on unconditionally: recording sites are per
// job/request/tick, never per edge, and an append is one mutex-guarded
// store of a fixed-size record into a preallocated Ring — zero
// allocations in steady state (strings are stored by reference;
// callers pass static or already-built strings, never fmt.Sprintf
// results built only for the recorder).
//
// The dump (WriteDump) renders oldest-first logfmt event lines plus a
// one-line compact JSON snapshot of the metrics registry, so a single
// SIGQUIT gives both the event ordering ("what happened just before")
// and the aggregate state ("what the gauges said when it did").
type FlightRecorder struct {
	ring *Ring[FlightEvent]
}

// FlightSeverity classifies an event for dump filtering.
type FlightSeverity uint8

// Severities, in increasing order of operator urgency.
const (
	FlightDebug FlightSeverity = iota // periodic ticks, snapshots
	FlightInfo                        // normal lifecycle (jobs, requests)
	FlightWarn                        // admission rejections, SLO transitions, 5xx
	FlightError                       // panics, job failures
)

func (s FlightSeverity) String() string {
	switch s {
	case FlightDebug:
		return "debug"
	case FlightInfo:
		return "info"
	case FlightWarn:
		return "warn"
	case FlightError:
		return "error"
	default:
		return fmt.Sprintf("sev%d", uint8(s))
	}
}

// FlightEvent is one fixed-layout ring record.  Cat names the event
// source ("job", "http", "slo", "signal", "snapshot"), Msg the event
// itself, and N1/N2 carry two small numeric payloads whose meaning is
// per-category (job seq / HTTP status, duration µs / gauge values).
// Note is optional free-form correlation text (request id).
type FlightEvent struct {
	At   time.Time
	Sev  FlightSeverity
	Cat  string
	Msg  string
	N1   int64
	N2   int64
	Note string
}

// DefaultFlightCapacity is the ring size when NewFlightRecorder is
// given zero: at serve's per-request/per-job recording rates, thousands
// of events cover minutes of history in a few hundred KB.
const DefaultFlightCapacity = 4096

// NewFlightRecorder returns a recorder holding the last `capacity`
// events (0 selects DefaultFlightCapacity).  The ring itself is
// allocated on first use.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{ring: NewRing[FlightEvent](capacity)}
}

// Flight is the process-wide recorder every built-in recording site
// appends to and the dump surfaces read.
var Flight = NewFlightRecorder(0)

// Record appends one event stamped now.  Safe for concurrent use;
// allocation-free once the ring exists.
func (r *FlightRecorder) Record(sev FlightSeverity, cat, msg string, n1, n2 int64) {
	r.RecordNote(sev, cat, msg, n1, n2, "")
}

// RecordNote is Record with a correlation note (request id, reason).
// The note must be a string the caller already has — building one just
// for the recorder would void the allocation-free contract.
func (r *FlightRecorder) RecordNote(sev FlightSeverity, cat, msg string, n1, n2 int64, note string) {
	r.ring.Add(FlightEvent{At: time.Now(), Sev: sev, Cat: cat, Msg: msg, N1: n1, N2: n2, Note: note})
}

// Snapshot copies the retained events oldest-first and reports how many
// older events the ring has already overwritten.
func (r *FlightRecorder) Snapshot() (events []FlightEvent, dropped uint64) {
	return r.ring.Snapshot()
}

// Len reports how many events the ring currently retains.
func (r *FlightRecorder) Len() int { return r.ring.Len() }

// WriteDump writes the post-mortem dump: a header line, one logfmt line
// per retained event (oldest first), and — when reg is non-nil — a
// final "metrics" line holding reg's compact JSON snapshot (the runtime
// gauges are refreshed first when reg is the Default registry).
func (r *FlightRecorder) WriteDump(w io.Writer, reg *Registry) error {
	events, dropped := r.Snapshot()
	if _, err := fmt.Fprintf(w, "flightrec dump t=%s events=%d dropped=%d\n",
		time.Now().UTC().Format(time.RFC3339Nano), len(events), dropped); err != nil {
		return err
	}
	for i := range events {
		ev := &events[i]
		var err error
		if ev.Note != "" {
			_, err = fmt.Fprintf(w, "flight t=%s sev=%s cat=%s ev=%q n1=%d n2=%d note=%q\n",
				ev.At.UTC().Format(time.RFC3339Nano), ev.Sev, ev.Cat, ev.Msg, ev.N1, ev.N2, ev.Note)
		} else {
			_, err = fmt.Fprintf(w, "flight t=%s sev=%s cat=%s ev=%q n1=%d n2=%d\n",
				ev.At.UTC().Format(time.RFC3339Nano), ev.Sev, ev.Cat, ev.Msg, ev.N1, ev.N2)
		}
		if err != nil {
			return err
		}
	}
	if reg != nil {
		reg.maybeSampleRuntime()
		if _, err := io.WriteString(w, "metrics "); err != nil {
			return err
		}
		enc := json.NewEncoder(w) // compact: one line, greppable
		if err := enc.Encode(reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// DumpFlight writes the process-wide recorder's dump (with the Default
// registry's metrics) — the one-call surface the SIGQUIT and panic
// paths use.
func DumpFlight(w io.Writer) error {
	return Flight.WriteDump(w, Default)
}

// FlightHandler serves the process-wide recorder's dump over HTTP (the
// /debug/flightrecorder endpoint) with reg's metrics appended.
func FlightHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = Flight.WriteDump(w, reg)
	})
}
