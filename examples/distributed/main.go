// Distributed generation: the paper's §V future work — generating a
// bipartite Kronecker graph across many workers while computing the
// exact ground truth *during* generation — done by the repository's
// distributed generator.  A coordinator (internal/distgen) cuts the
// product's edge order into a 2D grid of blocks and leases each block to
// a `kronbip serve` replica, here an in-process fleet behind httptest.
// Each replica regenerates its block from the factors alone, prices
// every edge with its 4-cycle count as it walks (Thm. 5), and reports
// the block's Σ◊ in a trailer.  The coordinator adds up the accepted
// blocks' sums and requires exactly 4·□, the closed form, without ever
// walking the product itself.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"time"

	"kronbip/internal/distgen"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// runOnFleet runs one audited distgen.Run of sp over a fresh fleet of n
// in-process serve replicas behind httptest, discarding the merged
// edges.
func runOnFleet(sp spec.Spec, n int) (*distgen.Result, error) {
	urls := make([]string, n)
	for i := range urls {
		s := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			_ = s.Shutdown(5 * time.Second) // the run is over; a slow drain changes nothing
		}()
		urls[i] = ts.URL
	}
	return distgen.Run(context.Background(), sp, io.Discard, distgen.Options{
		Workers: urls, Format: "bin", Audit: true,
	})
}

func main() {
	sp := spec.Spec{Factors: []string{"sf64x128x320"}, Mode: spec.ModeSelfLoop, Seed: 7}
	p, err := sp.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("product: %v\n", p)
	fmt.Printf("coordinator reference (closed form, no generation): □ = %d\n\n", p.GlobalFourCycles())

	var last *distgen.Result
	for _, replicas := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := runOnFleet(sp, replicas)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replicas=%d  grid=%dx%d  wall=%v  edges=%d  □(Σ◊/4)=%d  audit checks=%d violations=%d\n",
			replicas, res.Rows, res.Cols, time.Since(start), res.Edges, res.FourCycles,
			res.AuditChecks, res.AuditViolations)
		last = res
	}

	fmt.Println("\nper-replica share of the last run (pull scheduling: a faster replica takes more blocks):")
	for _, w := range last.Workers {
		fmt.Printf("  %-24s leases=%d failures=%d ewma=%.4fs\n", w.URL, w.Leases, w.Failures, w.EWMASeconds)
	}
}
