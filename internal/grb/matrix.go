// Package grb implements a small, stdlib-only subset of the GraphBLAS
// operation set over compressed-sparse-row matrices and dense vectors.
//
// The ground-truth formulas of Steil et al. (IPDPSW 2020) are expressed in
// the language of linear algebra over adjacency matrices: Kronecker products,
// Hadamard (element-wise) products, matrix powers, diagonal extraction and
// reductions.  This package provides exactly that op set, generic over the
// scalar type, together with row-parallel variants of the expensive kernels.
//
// Matrices are immutable after construction; every operation returns a new
// matrix.  Indices are 0-based throughout (the paper uses 1-based indices;
// the translation is confined to doc comments in package core).
package grb

import (
	"fmt"
	"sort"
)

// Number is the scalar constraint for all grb containers.  Signed integer
// instantiations are used for exact combinatorial ground truth; float64 is
// used for densities and clustering coefficients.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~float32 | ~float64
}

// Matrix is an immutable sparse matrix in CSR (compressed sparse row) form.
// Within each row, column indices are strictly increasing and free of
// duplicates; explicit zeros are permitted (GraphBLAS "structural" zeros are
// a storage concern, not a value concern).
type Matrix[T Number] struct {
	nr, nc int
	rowPtr []int // len nr+1
	colIdx []int // len nnz
	val    []T   // len nnz
}

// NewCSR wraps pre-built CSR arrays in a Matrix after validating the
// invariants (monotone rowPtr, in-range strictly increasing columns per row).
// The slices are retained, not copied.
func NewCSR[T Number](nr, nc int, rowPtr, colIdx []int, val []T) (*Matrix[T], error) {
	if nr < 0 || nc < 0 {
		return nil, fmt.Errorf("grb: negative dimension %dx%d", nr, nc)
	}
	if len(rowPtr) != nr+1 {
		return nil, fmt.Errorf("grb: rowPtr length %d, want %d", len(rowPtr), nr+1)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("grb: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	nnz := rowPtr[nr]
	if len(colIdx) != nnz || len(val) != nnz {
		return nil, fmt.Errorf("grb: colIdx/val length %d/%d, want %d", len(colIdx), len(val), nnz)
	}
	for i := 0; i < nr; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("grb: rowPtr not monotone at row %d", i)
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= nc {
				return nil, fmt.Errorf("grb: column %d out of range [0,%d) in row %d", colIdx[k], nc, i)
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				return nil, fmt.Errorf("grb: columns not strictly increasing in row %d", i)
			}
		}
	}
	return &Matrix[T]{nr: nr, nc: nc, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// Zero returns the nr-by-nc matrix with no stored entries.
func Zero[T Number](nr, nc int) *Matrix[T] {
	return &Matrix[T]{nr: nr, nc: nc, rowPtr: make([]int, nr+1)}
}

// Identity returns the n-by-n identity matrix.
func Identity[T Number](n int) *Matrix[T] {
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n)
	val := make([]T, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = i
		val[i] = 1
	}
	return &Matrix[T]{nr: n, nc: n, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// DiagonalMatrix returns the square matrix with d on its diagonal.  Zero
// entries of d are not stored.
func DiagonalMatrix[T Number](d []T) *Matrix[T] {
	n := len(d)
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, n)
	val := make([]T, 0, n)
	for i, v := range d {
		if v != 0 {
			colIdx = append(colIdx, i)
			val = append(val, v)
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Matrix[T]{nr: n, nc: n, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// FromDense builds a sparse matrix from a dense row-major representation,
// skipping zeros.  Intended for tests and tiny examples.
func FromDense[T Number](rows [][]T) (*Matrix[T], error) {
	nr := len(rows)
	nc := 0
	if nr > 0 {
		nc = len(rows[0])
	}
	b := NewBuilder[T](nr, nc)
	for i, r := range rows {
		if len(r) != nc {
			return nil, fmt.Errorf("grb: ragged dense input: row %d has %d columns, want %d", i, len(r), nc)
		}
		for j, v := range r {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// Dense returns a dense row-major copy of m.  Intended for tests and tiny
// examples only; it allocates nr*nc scalars.
func (m *Matrix[T]) Dense() [][]T {
	out := make([][]T, m.nr)
	for i := range out {
		out[i] = make([]T, m.nc)
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out[i][m.colIdx[k]] = m.val[k]
		}
	}
	return out
}

// NRows returns the number of rows.
func (m *Matrix[T]) NRows() int { return m.nr }

// NCols returns the number of columns.
func (m *Matrix[T]) NCols() int { return m.nc }

// NNZ returns the number of stored entries.
func (m *Matrix[T]) NNZ() int { return len(m.colIdx) }

// Row returns the column indices and values of row i.  The returned slices
// alias internal storage and must not be modified.
func (m *Matrix[T]) Row(i int) (cols []int, vals []T) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *Matrix[T]) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// At returns the (i,j) entry, or zero if it is not stored.  Binary search
// within the row; O(log nnz(row)).
func (m *Matrix[T]) At(i, j int) T {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	row := m.colIdx[lo:hi]
	k := sort.SearchInts(row, j)
	if k < len(row) && row[k] == j {
		return m.val[lo+k]
	}
	return 0
}

// Has reports whether entry (i,j) is stored (even if its value is zero).
func (m *Matrix[T]) Has(i, j int) bool {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	row := m.colIdx[lo:hi]
	k := sort.SearchInts(row, j)
	return k < len(row) && row[k] == j
}

// Iterate calls fn for every stored entry in row-major order.  Iteration
// stops early if fn returns false.
func (m *Matrix[T]) Iterate(fn func(i, j int, v T) bool) {
	for i := 0; i < m.nr; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if !fn(i, m.colIdx[k], m.val[k]) {
				return
			}
		}
	}
}

// Equal reports whether a and b have identical dimensions and identical
// stored values at every coordinate.  Entries stored as explicit zeros
// compare equal to absent entries.
func Equal[T Number](a, b *Matrix[T]) bool {
	if a.nr != b.nr || a.nc != b.nc {
		return false
	}
	for i := 0; i < a.nr; i++ {
		ca, va := a.Row(i)
		cb, vb := b.Row(i)
		pa, pb := 0, 0
		for pa < len(ca) || pb < len(cb) {
			switch {
			case pb >= len(cb) || (pa < len(ca) && ca[pa] < cb[pb]):
				if va[pa] != 0 {
					return false
				}
				pa++
			case pa >= len(ca) || cb[pb] < ca[pa]:
				if vb[pb] != 0 {
					return false
				}
				pb++
			default:
				if va[pa] != vb[pb] {
					return false
				}
				pa++
				pb++
			}
		}
	}
	return true
}

// String renders small matrices densely for debugging; large matrices are
// summarized by shape and nnz.
func (m *Matrix[T]) String() string {
	if m.nr*m.nc > 400 {
		return fmt.Sprintf("Matrix(%dx%d, nnz=%d)", m.nr, m.nc, m.NNZ())
	}
	s := fmt.Sprintf("Matrix(%dx%d):\n", m.nr, m.nc)
	for _, row := range m.Dense() {
		s += fmt.Sprintf("  %v\n", row)
	}
	return s
}
