package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// TestCmdDistGen drives the dist-gen subcommand end to end against two
// in-process serve replicas: the merged file carries exactly |E_C|
// distinct edges and the online audit passes.
func TestCmdDistGen(t *testing.T) {
	ctx := context.Background()
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			_ = s.Shutdown(5 * time.Second)
		})
		urls = append(urls, ts.URL)
	}
	out := filepath.Join(t.TempDir(), "merged.tsv")
	err := cmdDistGen(ctx, []string{
		"-worker", urls[0], "-worker", urls[1],
		"-factor", "crown3", "-factor", "path3",
		"-rows", "2", "-cols", "2",
		"-edges-out", out,
		"-audit",
	})
	if err != nil {
		t.Fatalf("cmdDistGen: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Spec{Factors: []string{"crown3", "path3"}}.WithDefaults().Build()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if int64(len(lines)) != p.NumEdges() {
		t.Fatalf("merged file has %d lines, closed form says %d", len(lines), p.NumEdges())
	}
	seen := map[string]bool{}
	for _, l := range lines {
		if !strings.Contains(l, "\t") {
			t.Fatalf("line %q is not tsv", l)
		}
		if seen[l] {
			t.Fatalf("duplicate edge %q in merged file", l)
		}
		seen[l] = true
	}

	// No workers is a usage error, not a hang.
	if err := cmdDistGen(ctx, []string{"-factor", "crown3"}); err == nil {
		t.Fatal("cmdDistGen accepted an empty worker list")
	}
	// A bad format is rejected by the coordinator's validation.
	if err := cmdDistGen(ctx, []string{"-worker", urls[0], "-factor", "crown3", "-format", "csv"}); err == nil {
		t.Fatal("cmdDistGen accepted -format csv")
	}
	// A half-specified or negative grid is rejected, not auto-sized.
	for _, grid := range [][]string{{"-rows", "4"}, {"-cols", "3"}, {"-rows", "-1", "-cols", "2"}} {
		err := cmdDistGen(ctx, append([]string{"-worker", urls[0], "-factor", "crown3"}, grid...))
		if err == nil || !strings.Contains(err.Error(), "Rows") || !strings.Contains(err.Error(), "Cols") {
			t.Fatalf("cmdDistGen %v: err = %v, want one naming Rows and Cols", grid, err)
		}
	}
	// A bad factor spec fails when the coordinator builds the product
	// locally, before any lease is issued.
	if err := cmdDistGen(ctx, []string{"-worker", urls[0], "-factor", "nope"}); err == nil {
		t.Fatal("cmdDistGen accepted a bad factor")
	}
}
