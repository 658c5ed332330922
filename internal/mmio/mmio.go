// Package mmio reads and writes MatrixMarket coordinate files, plain TSV
// edge lists, and the TSV series files the experiment harness emits for
// the paper's figures.  MatrixMarket is the lingua franca of the sparse
// collections (SuiteSparse, Konect) the paper draws factors from.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kronbip/internal/exec"
	"kronbip/internal/graph"
	"kronbip/internal/grb"
)

// WriteMatrixMarket writes m in MatrixMarket coordinate format with 1-based
// indices.  With pattern=true only coordinates are written (all values
// taken as 1); otherwise integer values are included.  Symmetry is not
// exploited: the general format is always used, which round-trips every
// grb.Matrix faithfully.
func WriteMatrixMarket(w io.Writer, m *grb.Matrix[int64], pattern bool) error {
	bw := bufio.NewWriter(w)
	field := "integer"
	if pattern {
		field = "pattern"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s general\n", field); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.NRows(), m.NCols(), m.NNZ()); err != nil {
		return err
	}
	var werr error
	m.Iterate(func(i, j int, v int64) bool {
		if pattern {
			_, werr = fmt.Fprintf(bw, "%d %d\n", i+1, j+1)
		} else {
			_, werr = fmt.Fprintf(bw, "%d %d %d\n", i+1, j+1, v)
		}
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate file.  Supported
// qualifiers: integer/pattern/real fields (real values are truncated to
// int64), general/symmetric symmetry.  Symmetric entries are mirrored.
func ReadMatrixMarket(r io.Reader) (*grb.Matrix[int64], error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("mmio: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported header %q", sc.Text())
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "integer", "pattern", "real":
	default:
		return nil, fmt.Errorf("mmio: unsupported field type %q", field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", symmetry)
	}

	// Skip comments, find the size line.
	var sizeLine string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		sizeLine = line
		break
	}
	if sizeLine == "" {
		return nil, fmt.Errorf("mmio: missing size line")
	}
	dims := strings.Fields(sizeLine)
	if len(dims) != 3 {
		return nil, fmt.Errorf("mmio: malformed size line %q", sizeLine)
	}
	nr, err := strconv.Atoi(dims[0])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad row count: %w", err)
	}
	nc, err := strconv.Atoi(dims[1])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad column count: %w", err)
	}
	nnz, err := strconv.Atoi(dims[2])
	if err != nil {
		return nil, fmt.Errorf("mmio: bad nnz count: %w", err)
	}
	if nr < 0 || nc < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: negative dimensions in size line %q", sizeLine)
	}

	b := grb.NewBuilder[int64](nr, nc)
	read := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		wantFields := 3
		if field == "pattern" {
			wantFields = 2
		}
		if len(f) < wantFields {
			return nil, fmt.Errorf("mmio: entry %d: malformed line %q", read+1, line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad row index: %w", read+1, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad column index: %w", read+1, err)
		}
		if i < 1 || i > nr || j < 1 || j > nc {
			return nil, fmt.Errorf("mmio: entry %d: index (%d,%d) outside %dx%d", read+1, i, j, nr, nc)
		}
		v := int64(1)
		if field != "pattern" {
			fv, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d: bad value: %w", read+1, err)
			}
			v = int64(fv)
		}
		b.Add(i-1, j-1, v)
		if symmetry == "symmetric" && i != j {
			b.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("mmio: size line promised %d entries, found %d", nnz, read)
	}
	return b.Build()
}

// WriteEdgeList writes one "u<TAB>v" line per undirected edge (u <= v),
// rendered by exec's TSV sink like every other edge list.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	tsv := exec.NewTSVSink(w)
	batch := make([]exec.Edge, 0, exec.RenderChunk)
	var werr error
	g.EachEdge(func(u, v int) bool {
		if batch = append(batch, exec.Edge{V: u, W: v}); len(batch) == cap(batch) {
			werr = tsv.EdgeBatch(batch)
			batch = batch[:0]
		}
		return werr == nil
	})
	if werr == nil {
		werr = tsv.EdgeBatch(batch)
	}
	if werr != nil {
		return werr
	}
	return tsv.Flush()
}

// ReadEdgeList parses whitespace-separated vertex pairs into a graph on n
// vertices.  Lines starting with '#' or '%' are comments.
func ReadEdgeList(r io.Reader, n int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("mmio: line %d: want two vertex ids, got %q", lineNo, line)
		}
		u, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: line %d: %w", lineNo, err)
		}
		v, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: line %d: %w", lineNo, err)
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return graph.New(n, edges)
}

// Series is a named column of numbers destined for a figure.
type Series struct {
	Name   string
	Values []float64
}

// WriteSeriesTSV writes aligned columns with a header row; shorter columns
// are padded with empty cells.  This is the data-exchange format for the
// Fig. 5 scatter reproduction.
func WriteSeriesTSV(w io.Writer, series ...Series) error {
	bw := bufio.NewWriter(w)
	maxLen := 0
	for i, s := range series {
		if i > 0 {
			if _, err := fmt.Fprint(bw, "\t"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprint(bw, s.Name); err != nil {
			return err
		}
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}
	for row := 0; row < maxLen; row++ {
		for i, s := range series {
			if i > 0 {
				if _, err := fmt.Fprint(bw, "\t"); err != nil {
					return err
				}
			}
			if row < len(s.Values) {
				if _, err := fmt.Fprintf(bw, "%g", s.Values[row]); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}
