package grb

import (
	"math/rand"
	"testing"
)

func TestMxMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		a := randomMatrix(rng, 6, 7, 0.3)
		b := randomMatrix(rng, 7, 5, 0.3)
		c, err := MxM(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := denseMul(a.Dense(), b.Dense())
		if !denseEqual(c.Dense(), want) {
			t.Fatalf("trial %d: MxM mismatch\n got %v\nwant %v", trial, c.Dense(), want)
		}
	}
}

func TestMxMDimensionMismatch(t *testing.T) {
	if _, err := MxM(Zero[int64](2, 3), Zero[int64](4, 2)); err == nil {
		t.Fatal("MxM accepted mismatched inner dimensions")
	}
	if _, err := MxMParallel(Zero[int64](2, 3), Zero[int64](4, 2), 2); err == nil {
		t.Fatal("MxMParallel accepted mismatched inner dimensions")
	}
}

func TestMxMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomMatrix(rng, 9, 9, 0.3)
	id := Identity[int64](9)
	left, _ := MxM(id, a)
	right, _ := MxM(a, id)
	if !Equal(left, a) || !Equal(right, a) {
		t.Fatal("identity is not neutral under MxM")
	}
}

func TestMxMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, workers := range []int{1, 2, 3, 8, 100} {
		a := randomMatrix(rng, 40, 30, 0.15)
		b := randomMatrix(rng, 30, 50, 0.15)
		serial, err := MxM(a, b)
		if err != nil {
			t.Fatal(err)
		}
		par, err := MxMParallel(a, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(serial, par) {
			t.Fatalf("workers=%d: parallel MxM differs from serial", workers)
		}
	}
}

func TestMxMParallelDefaultWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomMatrix(rng, 16, 16, 0.2)
	serial, _ := MxM(a, a)
	par, err := MxMParallel(a, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(serial, par) {
		t.Fatal("default-worker parallel MxM differs from serial")
	}
}

func TestMxMAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randomMatrix(rng, 5, 6, 0.4)
	b := randomMatrix(rng, 6, 4, 0.4)
	c := randomMatrix(rng, 4, 7, 0.4)
	ab, _ := MxM(a, b)
	abc1, _ := MxM(ab, c)
	bc, _ := MxM(b, c)
	abc2, _ := MxM(a, bc)
	if !Equal(abc1, abc2) {
		t.Fatal("MxM not associative")
	}
}

func TestSortIntsLargeAndSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 2, 10, 64, 65, 500} {
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(1000)
		}
		sortInts(s)
		for i := 1; i < n; i++ {
			if s[i-1] > s[i] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}
