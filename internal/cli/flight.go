package cli

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"

	"kronbip/internal/obs"
)

// Flight-recorder dump plumbing shared by both binaries: a SIGQUIT
// handler that writes the post-mortem dump and keeps the process
// running (in-flight work is untouched — this replaces Go's default
// kill-with-stack-dump for SIGQUIT), and a panic hook that dumps before
// re-raising so a crashing process leaves its last events behind.

// flightDumpPath, when set, receives each dump in addition to stderr;
// the file is rewritten per dump so it always holds the newest state.
var flightDumpPath atomic.Pointer[string]

// SetFlightDumpPath routes subsequent flight dumps (SIGQUIT, panic,
// FlushFlightDump) to path as well as stderr.  Empty clears it.
func SetFlightDumpPath(path string) {
	flightDumpPath.Store(&path)
}

// writeFlightDump emits the dump to stderr and, when configured, to the
// dump file (rewritten, so the file holds exactly one — the latest —
// dump).
func writeFlightDump(trigger string) {
	fmt.Fprintf(os.Stderr, "flightrec: dump (%s) follows\n", trigger)
	_ = obs.DumpFlight(os.Stderr)
	if p := flightDumpPath.Load(); p != nil && *p != "" {
		f, err := os.Create(*p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flightrec: %s: %v\n", *p, err)
			return
		}
		werr := obs.DumpFlight(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "flightrec: %s: %v\n", *p, werr)
			return
		}
		fmt.Fprintf(os.Stderr, "flightrec: dump written to %s\n", *p)
	}
}

// StartFlightDumpOnQuit installs the SIGQUIT handler: each SIGQUIT
// writes a flight-recorder dump and the process keeps serving.  The
// returned stop function uninstalls the handler (restoring the default
// SIGQUIT behaviour) and is safe to call more than once.
func StartFlightDumpOnQuit() (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGQUIT)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-sigc:
				obs.Flight.Record(obs.FlightInfo, "signal", "SIGQUIT flight dump", 0, 0)
				writeFlightDump("SIGQUIT")
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(sigc)
			close(done)
			wg.Wait()
		})
	}
}

// FlushFlightDump writes a final dump to the configured dump file (if
// any), for the drain path: a stopped replica leaves its post-mortem
// record on disk without needing a signal.  No-op without a path.
func FlushFlightDump() error {
	p := flightDumpPath.Load()
	if p == nil || *p == "" {
		return nil
	}
	f, err := os.Create(*p)
	if err != nil {
		return fmt.Errorf("flightrec: %s: %w", *p, err)
	}
	werr := obs.DumpFlight(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("flightrec: %s: %w", *p, werr)
	}
	return nil
}

// FlightDumpOnPanic is a deferred panic hook for main(): a panic
// unwinding past it writes the flight dump (the last thing the process
// does before dying is explain itself), then re-raises so the exit
// path — nonzero status, goroutine stacks — is unchanged.
func FlightDumpOnPanic() {
	if p := recover(); p != nil {
		obs.Flight.Record(obs.FlightError, "signal", "panic flight dump", 0, 0)
		writeFlightDump("panic")
		panic(p)
	}
}
