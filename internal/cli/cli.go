// Package cli holds the small pieces shared by the kronbip and
// experiments command-line front ends, so the two binaries report
// errors, pick exit codes and gate their stderr chatter identically.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Conventional exit codes shared by both binaries.
const (
	ExitOK        = 0   // success
	ExitError     = 1   // any ordinary failure
	ExitUsage     = 2   // bad flags / unknown subcommand
	ExitCancelled = 130 // SIGINT / timeout, the shell convention for interrupted work
)

// ExitCode maps an error to the process exit code Fail would use.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ExitCancelled
	case errors.Is(err, flag.ErrHelp):
		return ExitUsage
	default:
		return ExitError
	}
}

// usageError is a bad-invocation error that maps to ExitUsage (it
// matches flag.ErrHelp under errors.Is) while printing its own message.
type usageError struct{ msg string }

func (e *usageError) Error() string        { return e.msg }
func (e *usageError) Is(target error) bool { return target == flag.ErrHelp }

// UsageErrorf builds an error that Fail reports normally but ExitCode
// maps to ExitUsage — for bad arguments discovered after flag parsing.
func UsageErrorf(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// Fail reports err on stderr in the canonical "<cmd>: <error>" shape —
// cancellation is flagged as partial output — and returns the exit code
// for the caller to pass to os.Exit.  A nil err prints nothing and
// returns 0.
func Fail(cmd string, err error) int {
	return failTo(os.Stderr, cmd, err)
}

// failTo is Fail with an explicit writer, for tests.
func failTo(w io.Writer, cmd string, err error) int {
	code := ExitCode(err)
	switch code {
	case ExitOK:
	case ExitCancelled:
		fmt.Fprintf(w, "%s: aborted (%v); output is partial\n", cmd, err)
	default:
		fmt.Fprintf(w, "%s: %v\n", cmd, err)
	}
	return code
}

// Verbosity is the -quiet flag gating stderr chatter: summaries (the
// one-per-run result lines) print unless -quiet.
type Verbosity struct {
	quiet *bool
	// Err receives the gated output; nil selects os.Stderr.  Set in
	// tests to capture.
	Err io.Writer
}

// RegisterVerbosity binds -quiet onto fs.
func RegisterVerbosity(fs *flag.FlagSet) *Verbosity {
	return &Verbosity{quiet: fs.Bool("quiet", false, "suppress the stderr summary lines")}
}

// Quiet reports whether summaries are suppressed.
func (v *Verbosity) Quiet() bool { return *v.quiet }

// Summaryf prints a result summary line unless -quiet.
func (v *Verbosity) Summaryf(format string, args ...any) {
	if v.Quiet() {
		return
	}
	w := v.Err
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, format, args...)
}
