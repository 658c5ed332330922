package timeline

import (
	"fmt"
	"io"
	"time"
)

// WriteChromeTrace renders events as a Chrome trace_event JSON document
// (the "JSON Object Format" with a traceEvents array of "ph":"X"
// complete events), loadable in chrome://tracing or Perfetto.  Each
// event becomes one slice: pid 1, tid = lane (see laneFor), ts/dur in
// microseconds relative to the earliest start, with cat, ok and the
// unit id carried in args.  Events must be Snapshot order (sorted by
// start); output is deterministic for a given event slice.
func WriteChromeTrace(w io.Writer, events []Event, dropped uint64) error {
	var epoch time.Time
	if len(events) > 0 {
		epoch = events[0].Start
	}
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["); err != nil {
		return err
	}
	for i, ev := range events {
		sep := ","
		if i == 0 {
			sep = ""
		}
		note := ""
		if ev.Note != "" {
			note = fmt.Sprintf(",\"note\":%q", ev.Note)
		}
		_, err := fmt.Fprintf(w,
			"%s\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"ok\":%v%s}}",
			sep, ev.Name, ev.Cat,
			ev.Start.Sub(epoch).Microseconds(), ev.Dur.Microseconds(),
			laneFor(ev), ev.ID, ev.OK, note)
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n],\"otherData\":{\"events\":%d,\"dropped\":%d}}\n", len(events), dropped)
	return err
}

// laneFor maps an event to a Chrome trace thread id so each category
// gets its own band of lanes and units within a category do not
// overlap: shards spread by ID, kernels/stages/audit share one lane per
// category (their events nest in time, not in space).
func laneFor(ev Event) int {
	const band = 10000
	switch ev.Cat {
	case CatShard:
		return 1*band + ev.ID
	case CatKernel:
		return 3 * band
	case CatStage:
		return 4 * band
	case CatAudit:
		return 5 * band
	default:
		return 6 * band
	}
}

// WriteJournal renders events as a logfmt run journal, one line per
// event in start order plus a trailer with totals — greppable and
// diffable where the Chrome trace is clickable:
//
//	event t_us=0 dur_us=1523 cat=shard name=core.stream id=0 ok=true
//	...
//	journal events=12 dropped=0
func WriteJournal(w io.Writer, events []Event, dropped uint64) error {
	var epoch time.Time
	if len(events) > 0 {
		epoch = events[0].Start
	}
	for _, ev := range events {
		note := ""
		if ev.Note != "" {
			note = fmt.Sprintf(" note=%q", ev.Note)
		}
		_, err := fmt.Fprintf(w, "event t_us=%d dur_us=%d cat=%s name=%s id=%d ok=%v%s\n",
			ev.Start.Sub(epoch).Microseconds(), ev.Dur.Microseconds(),
			ev.Cat, ev.Name, ev.ID, ev.OK, note)
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "journal events=%d dropped=%d\n", len(events), dropped)
	return err
}
