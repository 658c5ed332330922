package mmio

import (
	"bytes"
	"strings"
	"testing"
)

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
