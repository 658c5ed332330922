package timeline

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kronbip/internal/obs"
)

// Flags is the timeline flag bundle registered alongside obs.Flags by
// both CLIs.  It lives here rather than on obs.Flags because obs cannot
// import timeline (timeline publishes its stats through obs); the usage
// strings cross-reference -trace so the two tracing flags read side by
// side in -help.
//
//	tlFlags := timeline.RegisterFlags(fs)
//	fs.Parse(args)
//	stopTL, err := tlFlags.Start(os.Stderr)
//	if err != nil { return err }
//	// ... run; stopTL() before the obs stop so straggler gauges land
//	// in the -metrics-out snapshot.
type Flags struct {
	TimelineOut string
	JournalOut  string
}

// RegisterFlags binds the timeline flags onto fs and returns the
// destination struct (populated after fs.Parse).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TimelineOut, "timeline-out", "", "write a Chrome trace_event JSON timeline of shards/kernels/stages to this file (open in chrome://tracing or Perfetto; distinct from -trace, the Go runtime trace)")
	fs.StringVar(&f.JournalOut, "journal-out", "", "write a logfmt event journal (same events as -timeline-out) to this file")
	return f
}

// Active reports whether any timeline flag was set.
func (f *Flags) Active() bool { return f.TimelineOut != "" || f.JournalOut != "" }

// Start enables event recording (plus obs instrumentation, which the
// per-shard sites gate on) and returns a stop function that snapshots
// the Default recorder, writes the requested exports, publishes the
// straggler gauges to obs.Default and prints the imbalance summary to
// summaryW (nil suppresses it).  With no flag set both Start and stop
// are no-ops.
func (f *Flags) Start(summaryW io.Writer) (stop func() error, err error) {
	if !f.Active() {
		return func() error { return nil }, nil
	}
	Default.Reset()
	SetEnabled(true)
	obs.SetEnabled(true)
	return func() error {
		SetEnabled(false)
		events, dropped := Default.Snapshot()
		groups := Stats(events)
		PublishStats(obs.Default, groups, len(events), dropped)
		var firstErr error
		if f.TimelineOut != "" {
			if err := writeFile(f.TimelineOut, func(w io.Writer) error {
				return WriteChromeTrace(w, events, dropped)
			}); err != nil {
				firstErr = fmt.Errorf("timeline: -timeline-out: %w", err)
			}
		}
		if f.JournalOut != "" {
			if err := writeFile(f.JournalOut, func(w io.Writer) error {
				return WriteJournal(w, events, dropped)
			}); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("timeline: -journal-out: %w", err)
			}
		}
		if summaryW != nil {
			if err := WriteSummary(summaryW, groups); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

// writeFile creates path and streams emit into it.
func writeFile(path string, emit func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
