package mmio

import (
	"bytes"
	"strings"
	"testing"

	"kronbip/internal/gen"
	"kronbip/internal/graph"
	"kronbip/internal/grb"
)

func TestMatrixMarketRoundTripInteger(t *testing.T) {
	m, _ := grb.FromDense([][]int64{{0, 3, 0}, {1, 0, 2}, {0, 0, 7}})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m, false); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !grb.Equal(m, back) {
		t.Fatal("integer round trip mismatch")
	}
}

func TestMatrixMarketRoundTripPattern(t *testing.T) {
	g := gen.Petersen()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g.Adjacency(), true); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !grb.Equal(g.Adjacency(), back) {
		t.Fatal("pattern round trip mismatch")
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer symmetric
% lower triangle only
3 3 2
2 1 5
3 2 4
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 5 || m.At(1, 0) != 5 || m.At(2, 1) != 4 || m.At(1, 2) != 4 {
		t.Fatalf("symmetric mirror failed: %v", m.Dense())
	}
}

func TestMatrixMarketRealTruncates(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.9\n"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2 {
		t.Fatalf("real truncation: got %d, want 2", m.At(0, 0))
	}
}

func TestMatrixMarketMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "%%NotMatrixMarket\n1 1 0\n"},
		{"array format", "%%MatrixMarket matrix array integer general\n1 1\n"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate integer hermitian\n1 1 0\n"},
		{"missing size", "%%MatrixMarket matrix coordinate integer general\n"},
		{"short size", "%%MatrixMarket matrix coordinate integer general\n2 2\n"},
		{"bad size token", "%%MatrixMarket matrix coordinate integer general\nx 2 0\n"},
		{"negative size", "%%MatrixMarket matrix coordinate integer general\n-1 2 0\n"},
		{"short entry", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1\n"},
		{"bad row", "%%MatrixMarket matrix coordinate integer general\n2 2 1\nx 1 1\n"},
		{"bad col", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 x 1\n"},
		{"bad value", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 x\n"},
		{"row out of range", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n3 1 1\n"},
		{"zero index", "%%MatrixMarket matrix coordinate integer general\n2 2 1\n0 1 1\n"},
		{"nnz mismatch", "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadMatrixMarket(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("accepted malformed input %q", tc.in)
			}
		})
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	// K_{40,40}'s 1,600 edges span more than one of WriteEdgeList's
	// batches.
	for _, g := range []*graph.Graph{gen.Cycle(8), gen.CompleteBipartite(40, 40).Graph} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(buf.String(), "\n"); lines != g.NumEdges() {
			t.Fatalf("%d lines, want one per edge (%d)", lines, g.NumEdges())
		}
		back, err := ReadEdgeList(&buf, g.N())
		if err != nil {
			t.Fatal(err)
		}
		if back.NumEdges() != g.NumEdges() {
			t.Fatalf("edge count %d, want %d", back.NumEdges(), g.NumEdges())
		}
		for _, e := range g.Edges() {
			if !back.HasEdge(e.U, e.V) {
				t.Fatalf("edge %v lost in round trip", e)
			}
		}
	}
}

func TestEdgeListCommentsAndErrors(t *testing.T) {
	in := "# comment\n% other comment\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	for _, bad := range []string{"0\n", "x 1\n", "0 y\n", "0 99\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad), 3); err == nil {
			t.Fatalf("accepted malformed edge list %q", bad)
		}
	}
}

func TestReadKonectBipartite(t *testing.T) {
	in := `% bip unweighted
% 4 3 5
1 1
1 2
2 5 3 1234567
3 4
`
	b, err := ReadKonectBipartite(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if b.NU() != 3 || b.NW() != 5 {
		t.Fatalf("parts %d/%d, want 3/5 from the size header", b.NU(), b.NW())
	}
	if b.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", b.NumEdges())
	}
	if !b.HasEdge(0, 3) || !b.HasEdge(1, 3+4) {
		t.Fatal("edges not at bipartite block offsets")
	}
}

func TestReadKonectBipartiteNoHeader(t *testing.T) {
	// Without a size header, part sizes come from the max ids; duplicates
	// collapse.
	in := "2 3\n2 3\n1 1\n"
	b, err := ReadKonectBipartite(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if b.NU() != 2 || b.NW() != 3 || b.NumEdges() != 2 {
		t.Fatalf("got |U|=%d |W|=%d m=%d", b.NU(), b.NW(), b.NumEdges())
	}
}

func TestReadKonectBipartiteMalformed(t *testing.T) {
	cases := []string{
		"",               // no edges
		"1\n",            // too few fields
		"x 1\n",          // bad id
		"1 y\n",          // bad id
		"0 1\n",          // zero-based id
		"-1 2\n",         // negative id
		"% 1 1 1\n2 1\n", // size header smaller than data
	}
	for _, in := range cases {
		if _, err := ReadKonectBipartite(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted malformed konect input %q", in)
		}
	}
}

func TestWriteSeriesTSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesTSV(&buf,
		Series{Name: "deg", Values: []float64{1, 2, 3}},
		Series{Name: "squares", Values: []float64{0.5, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if lines[0] != "deg\tsquares" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1\t0.5" || lines[3] != "3\t" {
		t.Fatalf("rows wrong:\n%s", buf.String())
	}
}
