package grb

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks of the sparse kernels at factor-like sizes.

func benchMatrix(n int, density float64) *Matrix[int64] {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				b.Add(i, j, 1)
			}
		}
	}
	return b.MustBuild()
}

func BenchmarkMxM256(b *testing.B) {
	m := benchMatrix(256, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MxM(m, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMxMParallel256(b *testing.B) {
	m := benchMatrix(256, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MxMParallel(m, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKron64x64(b *testing.B) {
	m := benchMatrix(64, 0.08)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Kron(m, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEWiseAdd(b *testing.B) {
	x := benchMatrix(512, 0.03)
	y := benchMatrix(512, 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHadamard(b *testing.B) {
	x := benchMatrix(512, 0.03)
	y := benchMatrix(512, 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hadamard(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchMatrix(512, 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Transpose(m)
	}
}

func BenchmarkMxV(b *testing.B) {
	m := benchMatrix(1024, 0.01)
	x := make([]int64, 1024)
	for i := range x {
		x[i] = int64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MxV(m, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKronVec(b *testing.B) {
	x := make([]int64, 1024)
	for i := range x {
		x[i] = int64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KronVec(x, x)
	}
}

func BenchmarkExprSumFused(b *testing.B) {
	x := make([]int64, 1<<16)
	for i := range x {
		x[i] = int64(i % 5)
	}
	e := KronExpr(LeafExpr(x), LeafExpr(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Sum()
	}
}
