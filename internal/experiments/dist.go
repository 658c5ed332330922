package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"time"

	"kronbip/internal/distgen"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// DistRow is one fleet-size row of EXP-DIST.
type DistRow struct {
	Replicas        int
	Rows, Cols      int // the coordinator's block grid
	Wall            time.Duration
	Edges           int64
	FourCycles      int64 // the leases' Σ◊ / 4
	AuditChecks     int
	AuditViolations int
}

// DistResult is the paper's §V future work done by the distributed
// generator itself: an audited distgen.Run over in-process fleets of
// serve replicas.  Every replica prices the edges of the blocks it
// leases with their 4-cycle counts as it walks and reports each block's
// Σ◊; the coordinator's sum must reproduce the closed-form □ for every
// fleet size, and the audit of the merged stream must be clean.
type DistResult struct {
	Product   string
	Reference int64 // closed-form global count
	Rows      []DistRow
}

// RunDistributed sweeps fleet sizes on a mid-scale product.
func RunDistributed(seed int64) (*DistResult, error) {
	sp := spec.Spec{Factors: []string{"sf48x96x240"}, Mode: spec.ModeSelfLoop, Seed: seed}
	p, err := sp.Build()
	if err != nil {
		return nil, err
	}
	res := &DistResult{
		Product:   fmt.Sprintf("(A+I)⊗A, n=%d m=%d", p.N(), p.NumEdges()),
		Reference: p.GlobalFourCycles(),
	}
	for _, replicas := range []int{1, 2, 4, 8, 16} {
		row, err := runFleet(sp, replicas)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runFleet runs one audited distgen.Run of sp over a fresh fleet of
// in-process serve replicas behind httptest, discarding the merged
// edges.
func runFleet(sp spec.Spec, replicas int) (DistRow, error) {
	urls := make([]string, replicas)
	for i := range urls {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			// The run is over: a replica that drains slowly changes no result.
			_ = s.Shutdown(5 * time.Second)
		}()
		urls[i] = ts.URL
	}
	start := time.Now()
	r, err := distgen.Run(context.Background(), sp, io.Discard, distgen.Options{
		Workers: urls, Format: "bin", Audit: true,
	})
	if err != nil {
		return DistRow{}, fmt.Errorf("%d replicas: %w", replicas, err)
	}
	return DistRow{
		Replicas: replicas, Rows: r.Rows, Cols: r.Cols, Wall: time.Since(start),
		Edges: r.Edges, FourCycles: r.FourCycles,
		AuditChecks: r.AuditChecks, AuditViolations: r.AuditViolations,
	}, nil
}

func (r *DistResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Distributed generation (§V future work): distgen over in-process serve fleets on %s\n", r.Product)
	fmt.Fprintf(&b, "closed-form reference: □ = %d\n", r.Reference)
	fmt.Fprintf(&b, "%8s %6s %12s %12s %14s %8s\n", "replicas", "grid", "wall", "edges", "□ (Σ◊/4)", "audit")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %6s %12v %12d %14d %8s\n", row.Replicas, fmt.Sprintf("%dx%d", row.Rows, row.Cols),
			row.Wall, row.Edges, row.FourCycles, fmt.Sprintf("%d/%d", row.AuditChecks-row.AuditViolations, row.AuditChecks))
	}
	return b.String()
}

// Valid reports whether every fleet size reproduced the reference
// exactly with a clean audit.
func (r *DistResult) Valid() bool {
	for _, row := range r.Rows {
		if row.FourCycles != r.Reference || row.AuditChecks == 0 || row.AuditViolations != 0 {
			return false
		}
	}
	return len(r.Rows) > 0
}
