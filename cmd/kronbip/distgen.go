package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"kronbip/internal/cli"
	"kronbip/internal/distgen"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
	"kronbip/internal/spec"
)

// cmdDistGen coordinates distributed 2D-blocked generation across a
// fleet of `kronbip serve` replicas (internal/distgen): partition the
// spec's canonical edge order into a rows×cols block grid, lease each
// block to a replica over POST /v1/leases, and merge the returned
// streams into one ordered output — verified block by block and in
// total against the closed forms, with the fleet's Σ◊ checked against
// 4·□ and the optional online auditor running over the merged stream.
func cmdDistGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dist-gen", flag.ExitOnError)
	var workers factorChain
	fs.Var(&workers, "worker", "serve replica base URL (e.g. http://127.0.0.1:8080); repeat for each replica")
	factor := factorFlag(fs)
	mode := fs.String("mode", "selfloop", "selfloop | nonbip")
	seed := fs.Int64("seed", 2020, "factor seed")
	out := fs.String("edges-out", "-", "merged edge list destination ('-' for stdout)")
	format := fs.String("format", "tsv", "merged output rendering: tsv | ndjson | bin (the leased wire frames as sent); leases are bin whatever the output, so a dropped lease resumes from its last complete frame")
	rows := fs.Int("rows", 0, "row blocks of the grid; set with -cols, or leave both 0 to auto-size from -target-block-edges")
	cols := fs.Int("cols", 0, "column blocks of the grid; set with -rows, or leave both 0 to auto-size")
	targetBlock := fs.Int64("target-block-edges", distgen.DefaultTargetBlockEdges, "auto-sizing per-block edge target")
	leaseTimeout := fs.Duration("lease-timeout", 2*time.Minute, "per-lease deadline; an expired lease is re-issued to another replica")
	maxAttempts := fs.Int("max-attempts", 0, "failed leases tolerated per block before aborting (0 = 2 + worker count)")
	auditOn := fs.Bool("audit", false, "run the online ground-truth auditor over the merged stream; exit non-zero on any violation")
	auditSample := fs.Int("audit-sample", 0, "with -audit, membership-check every Nth merged edge (0 = default 1024)")
	requestID := fs.String("request-id", "", "correlation id propagated to every replica's lease (default: generated)")
	obsFlags := obs.RegisterFlags(fs)
	tlFlags := timeline.RegisterFlags(fs)
	verb := cli.RegisterVerbosity(fs)
	fs.Parse(args)

	if len(workers) == 0 {
		return errors.New("dist-gen: at least one -worker URL is required")
	}
	sp := spec.Spec{Factors: factor.orDefault("unicode"), Mode: *mode, Seed: *seed}

	stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	stopTL, err := tlFlags.Start(os.Stderr)
	if err != nil {
		stopObs()
		return err
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			stopTL()
			stopObs()
			return err
		}
		defer f.Close()
		w = f
	}
	// The coordinator writes whole verified blocks; buffering batches
	// those into large sequential writes.
	bw := bufio.NewWriterSize(w, 1<<20)

	res, runErr := distgen.Run(ctx, sp, bw, distgen.Options{
		Workers:          workers,
		Rows:             *rows,
		Cols:             *cols,
		TargetBlockEdges: *targetBlock,
		LeaseTimeout:     *leaseTimeout,
		MaxAttempts:      *maxAttempts,
		Audit:            *auditOn,
		AuditSample:      *auditSample,
		Format:           *format,
		RequestID:        *requestID,
	})
	if err := bw.Flush(); err != nil && runErr == nil {
		runErr = err
	}
	if res != nil {
		verb.Summaryf("dist-gen: merged %d edges from %d blocks (%dx%d grid, %d retried leases) four_cycles=%d req_id=%s\n",
			res.Edges, res.Blocks, res.Rows, res.Cols, res.Retries, res.FourCycles, res.RequestID)
		for _, ws := range res.Workers {
			verb.Summaryf("dist-gen: worker %s leases=%d failures=%d backoffs=%d ewma=%.3fs\n",
				ws.URL, ws.Leases, ws.Failures, ws.Backoffs, ws.EWMASeconds)
		}
		if *auditOn && runErr == nil {
			verb.Summaryf("dist-gen: audit checks=%d violations=%d\n", res.AuditChecks, res.AuditViolations)
		}
	}
	if err := stopTL(); err != nil && runErr == nil {
		runErr = err
	}
	if err := stopObs(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return fmt.Errorf("dist-gen: %w", runErr)
	}
	return nil
}
