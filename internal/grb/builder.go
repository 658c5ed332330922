package grb

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates coordinate-format (COO) entries and converts them to a
// CSR Matrix.  Duplicate coordinates are combined with addition, matching
// the GraphBLAS GrB_Matrix_build default of GrB_PLUS.
type Builder[T Number] struct {
	nr, nc int
	ent    []entry[T]
}

type entry[T Number] struct {
	i, j int
	v    T
}

// NewBuilder returns an empty builder for an nr-by-nc matrix.
func NewBuilder[T Number](nr, nc int) *Builder[T] {
	return &Builder[T]{nr: nr, nc: nc}
}

// Add appends one coordinate entry.  Out-of-range coordinates are reported
// at Build time so that callers can batch without per-call error handling.
func (b *Builder[T]) Add(i, j int, v T) {
	b.ent = append(b.ent, entry[T]{i, j, v})
}

// AddSym appends both (i,j) and (j,i); convenient for undirected graphs.
// A diagonal coordinate (i == j) is added only once.
func (b *Builder[T]) AddSym(i, j int, v T) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// Len returns the number of accumulated (pre-deduplication) entries.
func (b *Builder[T]) Len() int { return len(b.ent) }

// Build range-checks, sorts and duplicate-sums the accumulated entries
// and returns the CSR matrix.  One counting pass buckets the entries by
// row; each row is then stably sorted by column, so duplicates sum in
// insertion order.  The builder may be reused afterwards; it keeps its
// entries.
func (b *Builder[T]) Build() (*Matrix[T], error) {
	rowPtr := make([]int, b.nr+1)
	for _, e := range b.ent {
		if e.i < 0 || e.i >= b.nr || e.j < 0 || e.j >= b.nc {
			return nil, fmt.Errorf("grb: entry (%d,%d) out of range for %dx%d matrix", e.i, e.j, b.nr, b.nc)
		}
		rowPtr[e.i+1]++
	}
	for i := 0; i < b.nr; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	ent := make([]entry[T], len(b.ent))
	next := append([]int(nil), rowPtr[:b.nr]...)
	for _, e := range b.ent {
		ent[next[e.i]] = e
		next[e.i]++
	}
	// Sort each row by column and combine duplicates with addition,
	// compacting in place: row i's entries move to ent[rowPtr[i]:w].
	w, lo := 0, 0
	for i := 0; i < b.nr; i++ {
		hi := rowPtr[i+1]
		row := ent[lo:hi]
		slices.SortStableFunc(row, func(x, y entry[T]) int { return cmp.Compare(x.j, y.j) })
		for k, e := range row {
			if k > 0 && ent[w-1].j == e.j {
				ent[w-1].v += e.v
			} else {
				ent[w] = e
				w++
			}
		}
		rowPtr[i+1] = w
		lo = hi
	}

	colIdx := make([]int, w)
	val := make([]T, w)
	for k, e := range ent[:w] {
		colIdx[k] = e.j
		val[k] = e.v
	}
	return &Matrix[T]{nr: b.nr, nc: b.nc, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// MustBuild is Build that panics on error; for use with statically correct
// coordinates (generators, tests).
func (b *Builder[T]) MustBuild() *Matrix[T] {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
