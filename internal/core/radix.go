package core

import "fmt"

// Mixed-radix vertex addressing for factor chains.  A chained product
// C = A ⊗ B₁ ⊗ … ⊗ B_K names its vertices by digit tuples
// (i, k₁, …, k_K) over the factor sizes (n_A, n_B1, …, n_BK), packed
// most-significant-first:
//
//	v = ((i·n_B1 + k₁)·n_B2 + k₂)·… + k_K.
//
// For K = 1 this is exactly the two-factor convention p = i·n_B + k, so
// the historical layout is the one-digit special case.  The streaming
// hot loops, the ground-truth folds and the distance code all share
// this one layout through Radix, so an id means the same vertex
// everywhere.
//
// maxInt is the largest product vertex id representable: ids are ints,
// so a chain's vertex count must fit in int (and hence int64).
const maxInt = int(^uint(0) >> 1)

// OverflowError is the typed error returned when a chain's closed-form
// sizes (vertex count, edge count, sharding row count, or 4-cycle count)
// do not fit in the machine integer types the generator streams with.  Following the
// exec.Stripe idiom, the library never *computes* a wrapped value and
// then checks it — every multiplication and addition on the way up is
// guarded, so the error surfaces at construction, long before any
// generation work.
type OverflowError struct {
	Quantity string // what overflowed: "vertex count", "4-cycle count", …
	Detail   string // the factor sizes that overflowed it
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("core: chain %s overflows int64 (%s)", e.Quantity, e.Detail)
}

// mulInt64 returns a*b, reporting overflow instead of wrapping.
// Operands are non-negative counts.
func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// addInt64 returns a+b for non-negative operands, reporting overflow.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if s < a {
		return 0, false
	}
	return s, true
}

// Radix is a mixed-radix positional layout over digit sizes.  Digit 0
// is the most significant (the A factor); digit t > 0 addresses B_t.
type Radix struct {
	sizes   []int // digit sizes, all >= 1
	strides []int // strides[t] = ∏_{u>t} sizes[u]
	n       int   // ∏ sizes
}

// NewRadix builds the layout, rejecting non-positive digit sizes and —
// with a typed *OverflowError — products that do not fit in int.
func NewRadix(sizes ...int) (Radix, error) {
	if len(sizes) == 0 {
		return Radix{}, fmt.Errorf("core: radix needs at least one digit")
	}
	for _, s := range sizes {
		if s <= 0 {
			return Radix{}, fmt.Errorf("core: radix digit size %d must be positive", s)
		}
	}
	strides := make([]int, len(sizes))
	acc := int64(1)
	for t := len(sizes) - 1; t >= 0; t-- {
		if acc > int64(maxInt) {
			return Radix{}, &OverflowError{Quantity: "vertex count", Detail: fmt.Sprintf("factor sizes %v", sizes)}
		}
		strides[t] = int(acc)
		p, ok := mulInt64(acc, int64(sizes[t]))
		if !ok || p > int64(maxInt) {
			return Radix{}, &OverflowError{Quantity: "vertex count", Detail: fmt.Sprintf("factor sizes %v", sizes)}
		}
		acc = p
	}
	cp := make([]int, len(sizes))
	copy(cp, sizes)
	return Radix{sizes: cp, strides: strides, n: int(acc)}, nil
}

// K returns the number of digits (factors).
func (r Radix) K() int { return len(r.sizes) }

// N returns the total vertex count ∏ sizes.
func (r Radix) N() int { return r.n }

// Size returns the size of digit t.
func (r Radix) Size(t int) int { return r.sizes[t] }

// Digit extracts digit t of vertex v without decoding the rest.
func (r Radix) Digit(v, t int) int { return v / r.strides[t] % r.sizes[t] }

// AppendDecode appends the digits of v, most significant first, to dst
// and returns the extended slice.  With a caller-provided backing array
// of capacity >= K the call does not allocate.
func (r Radix) AppendDecode(dst []int, v int) []int {
	for _, s := range r.strides {
		dst = append(dst, v/s)
		v %= s
	}
	return dst
}

// Encode packs digits (most significant first) into a vertex id.  It is
// the inverse of AppendDecode for in-range digits; digits are not
// range-checked.
func (r Radix) Encode(digits ...int) int {
	v := 0
	for t, d := range digits {
		v += d * r.strides[t]
	}
	return v
}

// digitBuf is the stack buffer size the hot paths use for decoded
// digits; chains deeper than this fall back to an allocation.
const digitBuf = 16
