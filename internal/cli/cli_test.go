package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("boom"), ExitError},
		{context.Canceled, ExitCancelled},
		{context.DeadlineExceeded, ExitCancelled},
		{fmt.Errorf("wrapped: %w", context.Canceled), ExitCancelled},
		{flag.ErrHelp, ExitUsage},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestFailFormatting(t *testing.T) {
	var buf bytes.Buffer
	if code := failTo(&buf, "kronbip generate", errors.New("boom")); code != ExitError {
		t.Fatalf("code = %d", code)
	}
	if got := buf.String(); got != "kronbip generate: boom\n" {
		t.Fatalf("output = %q", got)
	}

	buf.Reset()
	if code := failTo(&buf, "kronbip generate", context.Canceled); code != ExitCancelled {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(buf.String(), "aborted") || !strings.Contains(buf.String(), "partial") {
		t.Fatalf("cancellation output = %q", buf.String())
	}

	buf.Reset()
	if code := failTo(&buf, "x", nil); code != ExitOK || buf.Len() != 0 {
		t.Fatalf("nil err: code=%d output=%q", code, buf.String())
	}
}

func TestVerbosityGating(t *testing.T) {
	run := func(args ...string) string {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		v := RegisterVerbosity(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		v.Err = &buf
		v.Summaryf("summary\n")
		return buf.String()
	}

	if got := run(); got != "summary\n" {
		t.Fatalf("default: %q", got)
	}
	if got := run("-quiet"); got != "" {
		t.Fatalf("-quiet: %q", got)
	}
}
