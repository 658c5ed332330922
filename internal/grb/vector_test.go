package grb

import "testing"

func TestVectorArithmetic(t *testing.T) {
	x := []int64{1, 2, 3}
	y := []int64{4, 5, 6}
	if !EqualVec(AddVec(x, y), []int64{5, 7, 9}) {
		t.Fatal("AddVec wrong")
	}
	if !EqualVec(SubVec(y, x), []int64{3, 3, 3}) {
		t.Fatal("SubVec wrong")
	}
	if !EqualVec(HadamardVec(x, y), []int64{4, 10, 18}) {
		t.Fatal("HadamardVec wrong")
	}
	if !EqualVec(ScaleVec(int64(-2), x), []int64{-2, -4, -6}) {
		t.Fatal("ScaleVec wrong")
	}
	if !EqualVec(ShiftVec(x, int64(10)), []int64{11, 12, 13}) {
		t.Fatal("ShiftVec wrong")
	}
	if SumVec(x) != 6 {
		t.Fatal("SumVec wrong")
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddVec":      func() { AddVec([]int64{1}, []int64{1, 2}) },
		"SubVec":      func() { SubVec([]int64{1}, []int64{1, 2}) },
		"HadamardVec": func() { HadamardVec([]int64{1}, []int64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqualVecLengths(t *testing.T) {
	if EqualVec([]int64{1}, []int64{1, 2}) {
		t.Fatal("EqualVec accepted mismatched lengths")
	}
	if !EqualVec([]int64{}, []int64{}) {
		t.Fatal("EqualVec rejected two empties")
	}
}

func TestFloatInstantiation(t *testing.T) {
	m, _ := FromDense([][]float64{{0.5, 0}, {0, 0.25}})
	if m.At(1, 1) != 0.25 {
		t.Fatal("float matrix At wrong")
	}
	v, err := MxV(m, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualVec(v, []float64{1, 1}) {
		t.Fatalf("float MxV = %v", v)
	}
}
