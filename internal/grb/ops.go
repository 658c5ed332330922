package grb

import "fmt"

// Add returns the element-wise sum a + b (GraphBLAS eWiseAdd with PLUS):
// the result pattern is the union of the operand patterns.
func Add[T Number](a, b *Matrix[T]) (*Matrix[T], error) {
	return EWiseAdd(PlusMonoid[T]().Op, a, b)
}

// EWiseAdd merges a and b with op applied where both are present; where only
// one operand is present its value passes through unchanged, matching
// GraphBLAS eWiseAdd semantics.
func EWiseAdd[T Number](op func(T, T) T, a, b *Matrix[T]) (*Matrix[T], error) {
	if a.nr != b.nr || a.nc != b.nc {
		return nil, fmt.Errorf("grb: eWiseAdd shape mismatch %dx%d vs %dx%d", a.nr, a.nc, b.nr, b.nc)
	}
	rowPtr := make([]int, a.nr+1)
	colIdx := make([]int, 0, a.NNZ()+b.NNZ())
	val := make([]T, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.nr; i++ {
		ca, va := a.Row(i)
		cb, vb := b.Row(i)
		pa, pb := 0, 0
		for pa < len(ca) || pb < len(cb) {
			switch {
			case pb >= len(cb) || (pa < len(ca) && ca[pa] < cb[pb]):
				colIdx = append(colIdx, ca[pa])
				val = append(val, va[pa])
				pa++
			case pa >= len(ca) || cb[pb] < ca[pa]:
				colIdx = append(colIdx, cb[pb])
				val = append(val, vb[pb])
				pb++
			default:
				colIdx = append(colIdx, ca[pa])
				val = append(val, op(va[pa], vb[pb]))
				pa++
				pb++
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Matrix[T]{nr: a.nr, nc: a.nc, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// Hadamard returns the element-wise product a ∘ b (GraphBLAS eWiseMult with
// TIMES): the result pattern is the intersection of the operand patterns.
func Hadamard[T Number](a, b *Matrix[T]) (*Matrix[T], error) {
	return EWiseMult(func(x, y T) T { return x * y }, a, b)
}

// EWiseMult intersects a and b, applying op where both store an entry.
func EWiseMult[T Number](op func(T, T) T, a, b *Matrix[T]) (*Matrix[T], error) {
	if a.nr != b.nr || a.nc != b.nc {
		return nil, fmt.Errorf("grb: eWiseMult shape mismatch %dx%d vs %dx%d", a.nr, a.nc, b.nr, b.nc)
	}
	rowPtr := make([]int, a.nr+1)
	var colIdx []int
	var val []T
	for i := 0; i < a.nr; i++ {
		ca, va := a.Row(i)
		cb, vb := b.Row(i)
		pa, pb := 0, 0
		for pa < len(ca) && pb < len(cb) {
			switch {
			case ca[pa] < cb[pb]:
				pa++
			case cb[pb] < ca[pa]:
				pb++
			default:
				colIdx = append(colIdx, ca[pa])
				val = append(val, op(va[pa], vb[pb]))
				pa++
				pb++
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Matrix[T]{nr: a.nr, nc: a.nc, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// ScalarMul returns c * a.
func ScalarMul[T Number](c T, a *Matrix[T]) *Matrix[T] {
	m, _ := Apply(a, func(v T) T { return c * v })
	return m
}

// Apply maps f over every stored value of a.  Entries mapped to zero remain
// stored (GraphBLAS keeps the pattern under GrB_apply).
func Apply[T Number](a *Matrix[T], f func(T) T) (*Matrix[T], error) {
	val := make([]T, len(a.val))
	for k, v := range a.val {
		val[k] = f(v)
	}
	return &Matrix[T]{
		nr:     a.nr,
		nc:     a.nc,
		rowPtr: append([]int(nil), a.rowPtr...),
		colIdx: append([]int(nil), a.colIdx...),
		val:    val,
	}, nil
}

// Prune returns a copy of a without entries for which keep returns false.
func Prune[T Number](a *Matrix[T], keep func(i, j int, v T) bool) *Matrix[T] {
	rowPtr := make([]int, a.nr+1)
	var colIdx []int
	var val []T
	for i := 0; i < a.nr; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if keep(i, a.colIdx[k], a.val[k]) {
				colIdx = append(colIdx, a.colIdx[k])
				val = append(val, a.val[k])
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Matrix[T]{nr: a.nr, nc: a.nc, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Transpose returns aᵗ using a two-pass counting transpose.
func Transpose[T Number](a *Matrix[T]) *Matrix[T] {
	rowPtr := make([]int, a.nc+1)
	for _, j := range a.colIdx {
		rowPtr[j+1]++
	}
	for j := 0; j < a.nc; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	colIdx := make([]int, len(a.colIdx))
	val := make([]T, len(a.val))
	next := append([]int(nil), rowPtr[:a.nc]...)
	for i := 0; i < a.nr; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			j := a.colIdx[k]
			colIdx[next[j]] = i
			val[next[j]] = a.val[k]
			next[j]++
		}
	}
	return &Matrix[T]{nr: a.nc, nc: a.nr, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// IsSymmetric reports whether a equals its transpose.
func IsSymmetric[T Number](a *Matrix[T]) bool {
	if a.nr != a.nc {
		return false
	}
	return Equal(a, Transpose(a))
}

// Diag extracts the main diagonal of a square matrix as a dense vector
// (diag(A) in the paper's Def. 6).
func Diag[T Number](a *Matrix[T]) ([]T, error) {
	if a.nr != a.nc {
		return nil, fmt.Errorf("grb: diag of non-square %dx%d matrix", a.nr, a.nc)
	}
	d := make([]T, a.nr)
	for i := 0; i < a.nr; i++ {
		d[i] = a.At(i, i)
	}
	return d, nil
}

// OffDiagonal returns a copy of a with all diagonal entries removed
// (the paper's C - C∘I_C self-loop removal).
func OffDiagonal[T Number](a *Matrix[T]) *Matrix[T] {
	return Prune(a, func(i, j int, _ T) bool { return i != j })
}

// PlusDiag returns a + c·I for square a (the paper's A + I_A when c = 1).
func PlusDiag[T Number](a *Matrix[T], c T) (*Matrix[T], error) {
	if a.nr != a.nc {
		return nil, fmt.Errorf("grb: PlusDiag on non-square %dx%d matrix", a.nr, a.nc)
	}
	d := make([]T, a.nr)
	for i := range d {
		d[i] = c
	}
	return Add(a, DiagonalMatrix(d))
}

// ReduceRows folds each row with the monoid, returning a dense vector;
// with PlusMonoid on an adjacency matrix this is the degree vector A·1.
func ReduceRows[T Number](m Monoid[T], a *Matrix[T]) []T {
	out := make([]T, a.nr)
	for i := 0; i < a.nr; i++ {
		acc := m.Identity
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			acc = m.Op(acc, a.val[k])
		}
		out[i] = acc
	}
	return out
}

// MxV computes y = A·x over the conventional (+,*) semiring.
func MxV[T Number](a *Matrix[T], x []T) ([]T, error) {
	return MxVSemiring(PlusTimes[T](), a, x)
}

// MxVSemiring computes y = A·x over an arbitrary semiring.  Only stored
// entries of A participate; absent entries act as the additive identity.
func MxVSemiring[T Number](sr Semiring[T], a *Matrix[T], x []T) ([]T, error) {
	if len(x) != a.nc {
		return nil, fmt.Errorf("grb: MxV dimension mismatch: matrix %dx%d, vector %d", a.nr, a.nc, len(x))
	}
	y := make([]T, a.nr)
	for i := 0; i < a.nr; i++ {
		acc := sr.Add.Identity
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			acc = sr.Add.Op(acc, sr.Mul(a.val[k], x[a.colIdx[k]]))
		}
		y[i] = acc
	}
	return y, nil
}
