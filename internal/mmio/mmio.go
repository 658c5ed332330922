// Package mmio reads the Konect bipartite edge files the paper's unicode
// factor ships in, and writes the TSV series files the experiment harness
// emits for the paper's figures.
package mmio

import (
	"bufio"
	"fmt"
	"io"
)

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
