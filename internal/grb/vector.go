package grb

import "fmt"

// Dense-vector helpers.  The per-vertex ground-truth formulas (Thm. 3–4)
// are linear combinations of Kronecker products of small per-factor vectors
// (degree d, two-walk counts w², squares s); these helpers keep that algebra
// readable at the call site.

// AddVec returns x + y element-wise.
func AddVec[T Number](x, y []T) []T {
	mustSameLen("AddVec", len(x), len(y))
	out := make([]T, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// SubVec returns x - y element-wise.
func SubVec[T Number](x, y []T) []T {
	mustSameLen("SubVec", len(x), len(y))
	out := make([]T, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// HadamardVec returns x ∘ y element-wise.
func HadamardVec[T Number](x, y []T) []T {
	mustSameLen("HadamardVec", len(x), len(y))
	out := make([]T, len(x))
	for i := range x {
		out[i] = x[i] * y[i]
	}
	return out
}

// ScaleVec returns c·x.
func ScaleVec[T Number](c T, x []T) []T {
	out := make([]T, len(x))
	for i := range x {
		out[i] = c * x[i]
	}
	return out
}

// ShiftVec returns x + c·1.
func ShiftVec[T Number](x []T, c T) []T {
	out := make([]T, len(x))
	for i := range x {
		out[i] = x[i] + c
	}
	return out
}

// SumVec returns the sum of the entries of x.
func SumVec[T Number](x []T) T {
	var s T
	for _, v := range x {
		s += v
	}
	return s
}

// EqualVec reports element-wise equality.
func EqualVec[T Number](x, y []T) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func mustSameLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("grb: %s length mismatch %d vs %d", op, a, b))
	}
}
