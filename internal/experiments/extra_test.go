package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDistances(t *testing.T) {
	res, err := RunDistances()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid() {
		t.Fatalf("distance ground truth failed:\n%s", res)
	}
	if len(res.Cases) != 6 {
		t.Fatalf("cases = %d, want 6", len(res.Cases))
	}
	for _, c := range res.Cases {
		if c.HopsChecked != c.ProductN*c.ProductN {
			t.Fatalf("%s: checked %d pairs, want %d", c.Name, c.HopsChecked, c.ProductN*c.ProductN)
		}
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunDegrees(t *testing.T) {
	res, err := RunDegrees(2020)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HistogramMatches {
		t.Fatal("closed-form degree histogram disagrees with materialization")
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	kron := res.Rows[0]
	if !kron.Exact {
		t.Fatal("product row should be exact")
	}
	if kron.N != 753424 {
		t.Fatalf("product vertices = %d, want 753424", kron.N)
	}
	// Product must amplify the factor's max degree multiplicatively.
	factor := res.Rows[1]
	if kron.MaxDegree < factor.MaxDegree*2 {
		t.Fatalf("product max degree %d not amplified over factor %d", kron.MaxDegree, factor.MaxDegree)
	}
	// Heavy tails everywhere: Gini well above a regular graph's 0.
	for _, row := range res.Rows {
		if row.Name == "bipartite BTER" {
			continue // BTER's degree ceiling keeps it flatter
		}
		if row.Gini < 0.2 {
			t.Fatalf("%s: Gini %.3f too uniform for a heavy-tail generator", row.Name, row.Gini)
		}
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestDegreeCCDFTSV(t *testing.T) {
	res, err := RunDegrees(2020)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCCDFTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "product_degree\tproduct_ccdf\tfactor_degree\tfactor_ccdf" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("CCDF TSV too short: %d lines", len(lines))
	}
	// First CCDF fraction is 1 (every vertex has degree >= min degree).
	first := strings.Split(lines[1], "\t")
	if first[1] != "1" {
		t.Fatalf("first product CCDF fraction = %q, want 1", first[1])
	}
}

func TestRunSpectral(t *testing.T) {
	res, err := RunSpectral()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid() {
		t.Fatalf("spectral ground truth failed:\n%s", res)
	}
	if len(res.Cases) != 6 {
		t.Fatalf("cases = %d, want 6", len(res.Cases))
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunDistributed(t *testing.T) {
	res, err := RunDistributed(4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid() {
		t.Fatalf("distributed generation failed:\n%s", res)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunApprox(t *testing.T) {
	res, err := RunApprox(9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid() {
		t.Fatalf("approx grading failed:\n%s", res)
	}
	if res.Truth <= 0 {
		t.Fatal("ground truth not positive")
	}
	if len(res.Points) != 9 {
		t.Fatalf("points = %d, want 9", len(res.Points))
	}
	if res.String() == "" {
		t.Fatal("empty String")
	}
}
