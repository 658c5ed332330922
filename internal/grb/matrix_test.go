package grb

import (
	"math/rand"
	"testing"
)

// randomMatrix returns a random nr-by-nc int64 matrix with approximately
// density*nr*nc entries drawn from [1, 5].
func randomMatrix(rng *rand.Rand, nr, nc int, density float64) *Matrix[int64] {
	b := NewBuilder[int64](nr, nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if rng.Float64() < density {
				b.Add(i, j, int64(rng.Intn(5)+1))
			}
		}
	}
	return b.MustBuild()
}

// randomSymmetric returns a random symmetric loop-free 0/1 matrix.
func randomSymmetric(rng *rand.Rand, n int, density float64) *Matrix[int64] {
	b := NewBuilder[int64](n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				b.AddSym(i, j, 1)
			}
		}
	}
	return b.MustBuild()
}

// denseMul multiplies dense matrices; brute-force oracle for MxM.
func denseMul(a, b [][]int64) [][]int64 {
	nr, inner, nc := len(a), len(b), len(b[0])
	out := make([][]int64, nr)
	for i := range out {
		out[i] = make([]int64, nc)
		for k := 0; k < inner; k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < nc; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func denseEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name   string
		nr, nc int
		rowPtr []int
		colIdx []int
		val    []int64
		ok     bool
	}{
		{"empty", 0, 0, []int{0}, nil, nil, true},
		{"valid", 2, 2, []int{0, 1, 2}, []int{0, 1}, []int64{1, 1}, true},
		{"negative dim", -1, 2, []int{0}, nil, nil, false},
		{"short rowPtr", 2, 2, []int{0, 1}, []int{0}, []int64{1}, false},
		{"rowPtr not zero", 1, 1, []int{1, 1}, nil, nil, false},
		{"rowPtr decreasing", 2, 2, []int{0, 2, 1}, []int{0, 1}, []int64{1, 1}, false},
		{"col out of range", 1, 2, []int{0, 1}, []int{2}, []int64{1}, false},
		{"col negative", 1, 2, []int{0, 1}, []int{-1}, []int64{1}, false},
		{"cols not increasing", 1, 3, []int{0, 2}, []int{1, 1}, []int64{1, 1}, false},
		{"val length mismatch", 1, 2, []int{0, 1}, []int{0}, []int64{1, 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCSR(tc.nr, tc.nc, tc.rowPtr, tc.colIdx, tc.val)
			if (err == nil) != tc.ok {
				t.Fatalf("NewCSR: got err=%v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestZeroAndIdentity(t *testing.T) {
	z := Zero[int64](3, 4)
	if z.NRows() != 3 || z.NCols() != 4 || z.NNZ() != 0 {
		t.Fatalf("Zero: got %dx%d nnz=%d", z.NRows(), z.NCols(), z.NNZ())
	}
	id := Identity[int64](4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := int64(0)
			if i == j {
				want = 1
			}
			if got := id.At(i, j); got != want {
				t.Fatalf("Identity At(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestDiagonalMatrixSkipsZeros(t *testing.T) {
	d := DiagonalMatrix([]int64{2, 0, -1})
	if d.NNZ() != 2 {
		t.Fatalf("DiagonalMatrix nnz = %d, want 2", d.NNZ())
	}
	if d.At(0, 0) != 2 || d.At(1, 1) != 0 || d.At(2, 2) != -1 {
		t.Fatalf("DiagonalMatrix wrong values: %v", d.Dense())
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	in := [][]int64{{0, 3, 0}, {1, 0, 0}, {0, 0, 7}}
	m, err := FromDense(in)
	if err != nil {
		t.Fatal(err)
	}
	if !denseEqual(m.Dense(), in) {
		t.Fatalf("round trip mismatch: %v vs %v", m.Dense(), in)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
}

func TestFromDenseRagged(t *testing.T) {
	if _, err := FromDense([][]int64{{1, 2}, {3}}); err == nil {
		t.Fatal("FromDense accepted ragged input")
	}
}

func TestAtAndHas(t *testing.T) {
	m := NewBuilder[int64](2, 3)
	m.Add(0, 2, 5)
	m.Add(1, 0, -2)
	a := m.MustBuild()
	if a.At(0, 2) != 5 || a.At(1, 0) != -2 || a.At(0, 0) != 0 {
		t.Fatal("At returned wrong values")
	}
	if !a.Has(0, 2) || a.Has(0, 1) {
		t.Fatal("Has returned wrong results")
	}
}

func TestIterateOrderAndEarlyStop(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(1)), 8, 8, 0.4)
	var prevI, prevJ = -1, -1
	count := 0
	a.Iterate(func(i, j int, v int64) bool {
		if i < prevI || (i == prevI && j <= prevJ) {
			t.Fatalf("iterate out of order: (%d,%d) after (%d,%d)", i, j, prevI, prevJ)
		}
		prevI, prevJ = i, j
		count++
		return true
	})
	if count != a.NNZ() {
		t.Fatalf("iterated %d entries, want %d", count, a.NNZ())
	}
	count = 0
	a.Iterate(func(i, j int, v int64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop iterated %d entries, want 3", count)
	}
}

func TestEqualTreatsExplicitZeros(t *testing.T) {
	// a stores an explicit zero at (0,1); b does not store it.
	a, err := NewCSR(1, 2, []int{0, 2}, []int{0, 1}, []int64{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder[int64](1, 2)
	b.Add(0, 0, 3)
	if !Equal(a, b.MustBuild()) {
		t.Fatal("explicit zero should equal absent entry")
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(Zero[int64](2, 3), Zero[int64](3, 2)) {
		t.Fatal("matrices of different shape compared equal")
	}
}

func TestRowAccessors(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(3)), 6, 9, 0.3)
	total := 0
	for i := 0; i < a.NRows(); i++ {
		cols, vals := a.Row(i)
		if len(cols) != len(vals) || len(cols) != a.RowNNZ(i) {
			t.Fatalf("row %d accessor length mismatch", i)
		}
		total += len(cols)
	}
	if total != a.NNZ() {
		t.Fatalf("rows sum to %d entries, want %d", total, a.NNZ())
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := Identity[int64](2)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	large := Zero[int64](100, 100)
	if s := large.String(); len(s) == 0 {
		t.Fatal("empty String for large matrix")
	}
}
