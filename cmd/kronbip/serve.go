package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kronbip/internal/cli"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
	"kronbip/internal/serve"
)

// cmdServe runs the long-lived generation & ground-truth HTTP service.
// It serves until the signal context is cancelled (SIGINT/SIGTERM),
// then drains: audited jobs finish, in-flight responses complete, and a
// clean drain exits 0.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; ':0' picks a free port)")
	maxEdges := fs.Int64("max-edges", serve.DefaultMaxEdges, "per-job closed-form |E_C| budget; bigger specs get 413 (negative = unlimited)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "sync endpoint (truth/stats/submit) timeout")
	retryAfter := fs.Duration("retry-after", time.Second, "backoff hint sent with 429 responses")
	retention := fs.Int("retention", 64, "finished jobs kept pollable before eviction")
	cacheSize := fs.Int("cache", 128, "factor-spec product cache capacity (LRU)")
	maxWalks := fs.Int("max-walks", 0, "concurrent product walks (edge streams, leases, audited jobs' checks) before 429 (0 = 2×GOMAXPROCS)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound: audited jobs and open responses get this long to finish")
	auditOn := fs.Bool("audit", false, "audit every job by default (its stream-free ground-truth checks)")
	auditSample := fs.Int("audit-sample", 0, "edge-membership sampling stride of ?audit=1 streams (0 = default 1024)")
	sloWindow := fs.Duration("slo-window", time.Minute, "rolling window the SLO evaluator judges over")
	sloP99 := fs.Duration("slo-p99", time.Second, "p99 latency objective for non-streaming routes; /readyz answers 503 while burned (negative = disabled)")
	sloErrRate := fs.Float64("slo-error-rate", 0.05, "5xx error-rate objective as a fraction (0 = zero tolerance, negative = disabled)")
	accessLog := fs.String("access-log", "", "write one logfmt line per request (req_id, trace_id, route, status) to this file ('-' = stderr)")
	flightDump := fs.String("flight-dump", "", "also write flight-recorder dumps (SIGQUIT, panic, final drain) to this file")
	obsFlags := obs.RegisterFlags(fs)
	tlFlags := timeline.RegisterFlags(fs)
	verb := cli.RegisterVerbosity(fs)
	fs.Parse(args)

	// A service is never a black box: instrumentation is on for the
	// whole process lifetime regardless of the obs flags, so /metrics
	// and /metrics.json always have live data.
	obs.SetEnabled(true)
	cli.SetFlightDumpPath(*flightDump)
	stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	stopTL, err := tlFlags.Start(nil)
	if err != nil {
		stopObs()
		return err
	}

	// File-backed access logs are buffered: one small write per request
	// instead of one syscall per line.  The buffer is flushed after the
	// drain completes (no requests are in flight by then, so the flush
	// races nothing) and the file closed — a SIGINT shutdown loses no
	// lines.  Stderr stays unbuffered so interactive tails are live.
	var accessW io.Writer
	var accessF *os.File
	var accessBuf *bufio.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.Create(*accessLog)
		if err != nil {
			stopTL()
			stopObs()
			return fmt.Errorf("serve: -access-log: %w", err)
		}
		accessF = f
		accessBuf = bufio.NewWriter(f)
		accessW = accessBuf
	}

	srv := serve.New(serve.Config{
		MaxEdges:       *maxEdges,
		RequestTimeout: *reqTimeout,
		RetryAfter:     *retryAfter,
		Retention:      *retention,
		CacheSize:      *cacheSize,
		MaxWalks:       *maxWalks,
		Audit:          *auditOn,
		AuditSample:    *auditSample,
		SLOWindow:      *sloWindow,
		SLOP99:         *sloP99,
		SLOErrorRate:   sloErrRate,
		AccessLog:      accessW,
	})
	if err := srv.Listen(*addr); err != nil {
		stopTL()
		stopObs()
		return err
	}
	// The "listening on" line is load-bearing: the smoke harness and
	// other scripted drivers scrape the bound address from it (':0'
	// binds an ephemeral port).
	verb.Summaryf("serve: kronbip %s listening on http://%s\n", cli.Build(), srv.Addr())

	srvErr := srv.Serve(ctx, *drain)
	verb.Summaryf("serve: drained and stopped\n")
	// obs.SetEnabled stays flipped by stopObs/stopTL only if flags were
	// set; flip it off explicitly for symmetry.
	if err := stopTL(); err != nil && srvErr == nil {
		srvErr = err
	}
	if err := stopObs(); err != nil && srvErr == nil {
		srvErr = err
	}
	if accessBuf != nil {
		if err := accessBuf.Flush(); err != nil && srvErr == nil {
			srvErr = err
		}
	}
	if accessF != nil {
		if err := accessF.Close(); err != nil && srvErr == nil {
			srvErr = err
		}
	}
	// Leave the final post-mortem record behind (-flight-dump): the
	// drained process writes its flight dump once, after the access log
	// is safely on disk.
	if err := cli.FlushFlightDump(); err != nil && srvErr == nil {
		srvErr = err
	}
	obs.SetEnabled(false)
	return srvErr
}
