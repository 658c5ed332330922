package grb

import (
	"math/rand"
	"testing"
)

func TestAddAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		a := randomMatrix(rng, 7, 5, 0.3)
		b := randomMatrix(rng, 7, 5, 0.3)
		c, err := Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		da, db, dc := a.Dense(), b.Dense(), c.Dense()
		for i := range dc {
			for j := range dc[i] {
				if dc[i][j] != da[i][j]+db[i][j] {
					t.Fatalf("trial %d: Add(%d,%d) = %d, want %d", trial, i, j, dc[i][j], da[i][j]+db[i][j])
				}
			}
		}
	}
}

func TestSubAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 6, 6, 0.4)
	b := randomMatrix(rng, 6, 6, 0.4)
	c, err := Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := a.Dense(), b.Dense(), c.Dense()
	for i := range dc {
		for j := range dc[i] {
			if dc[i][j] != da[i][j]-db[i][j] {
				t.Fatalf("Sub(%d,%d) = %d, want %d", i, j, dc[i][j], da[i][j]-db[i][j])
			}
		}
	}
}

func TestHadamardAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		a := randomMatrix(rng, 8, 4, 0.35)
		b := randomMatrix(rng, 8, 4, 0.35)
		c, err := Hadamard(a, b)
		if err != nil {
			t.Fatal(err)
		}
		da, db, dc := a.Dense(), b.Dense(), c.Dense()
		for i := range dc {
			for j := range dc[i] {
				if dc[i][j] != da[i][j]*db[i][j] {
					t.Fatalf("Hadamard(%d,%d) = %d, want %d", i, j, dc[i][j], da[i][j]*db[i][j])
				}
			}
		}
	}
}

func TestHadamardPatternIsIntersection(t *testing.T) {
	a, _ := FromDense([][]int64{{1, 2, 0}})
	b, _ := FromDense([][]int64{{0, 5, 7}})
	c, err := Hadamard(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 || c.At(0, 1) != 10 {
		t.Fatalf("Hadamard pattern wrong: nnz=%d dense=%v", c.NNZ(), c.Dense())
	}
}

func TestShapeMismatchErrors(t *testing.T) {
	a := Zero[int64](2, 3)
	b := Zero[int64](3, 2)
	if _, err := Add(a, b); err == nil {
		t.Fatal("Add accepted mismatched shapes")
	}
	if _, err := Hadamard(a, b); err == nil {
		t.Fatal("Hadamard accepted mismatched shapes")
	}
	if _, err := MxV(a, []int64{1, 2}); err == nil {
		t.Fatal("MxV accepted mismatched vector")
	}
}

func TestScalarMulAndApply(t *testing.T) {
	a, _ := FromDense([][]int64{{1, -2}, {0, 3}})
	c := ScalarMul(int64(-3), a)
	want := [][]int64{{-3, 6}, {0, -9}}
	if !denseEqual(c.Dense(), want) {
		t.Fatalf("ScalarMul = %v, want %v", c.Dense(), want)
	}
	sq, err := Apply(a, func(v int64) int64 { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	if sq.At(0, 1) != 4 || sq.At(1, 1) != 9 {
		t.Fatalf("Apply square wrong: %v", sq.Dense())
	}
	// Apply keeps the pattern even when mapping to zero.
	z, _ := Apply(a, func(int64) int64 { return 0 })
	if z.NNZ() != a.NNZ() {
		t.Fatalf("Apply dropped entries: nnz %d, want %d", z.NNZ(), a.NNZ())
	}
}

func TestPrune(t *testing.T) {
	a, _ := FromDense([][]int64{{1, 2}, {3, 4}})
	odd := Prune(a, func(i, j int, v int64) bool { return v%2 == 1 })
	if odd.NNZ() != 2 || odd.At(0, 0) != 1 || odd.At(1, 0) != 3 {
		t.Fatalf("Prune kept wrong entries: %v", odd.Dense())
	}
}

func TestTransposeAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		a := randomMatrix(rng, 5, 9, 0.3)
		at := Transpose(a)
		if at.NRows() != a.NCols() || at.NCols() != a.NRows() {
			t.Fatal("transpose shape wrong")
		}
		da, dat := a.Dense(), at.Dense()
		for i := range da {
			for j := range da[i] {
				if da[i][j] != dat[j][i] {
					t.Fatalf("transpose (%d,%d) mismatch", i, j)
				}
			}
		}
		if !Equal(a, Transpose(at)) {
			t.Fatal("double transpose differs from original")
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := randomSymmetric(rng, 12, 0.3)
	if !IsSymmetric(s) {
		t.Fatal("randomSymmetric result reported asymmetric")
	}
	a, _ := FromDense([][]int64{{0, 1}, {0, 0}})
	if IsSymmetric(a) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if IsSymmetric(Zero[int64](2, 3)) {
		t.Fatal("rectangular matrix reported symmetric")
	}
}

func TestDiagAndOffDiagonal(t *testing.T) {
	a, _ := FromDense([][]int64{{5, 1, 0}, {0, 0, 2}, {3, 0, 7}})
	d, err := Diag(a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualVec(d, []int64{5, 0, 7}) {
		t.Fatalf("Diag = %v", d)
	}
	od := OffDiagonal(a)
	if od.At(0, 0) != 0 || od.At(2, 2) != 0 || od.At(0, 1) != 1 || od.At(2, 0) != 3 {
		t.Fatalf("OffDiagonal wrong: %v", od.Dense())
	}
	if _, err := Diag(Zero[int64](2, 3)); err == nil {
		t.Fatal("Diag accepted rectangular matrix")
	}
}

func TestPlusDiag(t *testing.T) {
	a, _ := FromDense([][]int64{{0, 1}, {1, 0}})
	m, err := PlusDiag(a, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 1}, {1, 1}}
	if !denseEqual(m.Dense(), want) {
		t.Fatalf("PlusDiag = %v, want %v", m.Dense(), want)
	}
	if _, err := PlusDiag(Zero[int64](2, 3), int64(1)); err == nil {
		t.Fatal("PlusDiag accepted rectangular matrix")
	}
}

func TestReduceAndReduceRows(t *testing.T) {
	a, _ := FromDense([][]int64{{1, 2, 0}, {0, 0, 4}})
	rows := ReduceRows(PlusMonoid[int64](), a)
	if !EqualVec(rows, []int64{3, 4}) {
		t.Fatalf("ReduceRows = %v", rows)
	}
}

func TestMxVAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		a := randomMatrix(rng, 6, 8, 0.4)
		x := make([]int64, 8)
		for i := range x {
			x[i] = int64(rng.Intn(7) - 3)
		}
		y, err := MxV(a, x)
		if err != nil {
			t.Fatal(err)
		}
		da := a.Dense()
		for i := range y {
			var want int64
			for j := range x {
				want += da[i][j] * x[j]
			}
			if y[i] != want {
				t.Fatalf("MxV[%d] = %d, want %d", i, y[i], want)
			}
		}
	}
}
