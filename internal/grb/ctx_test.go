package grb

import (
	"context"
	"errors"
	"testing"
)

// denseRandomish builds a small deterministic matrix with enough rows to
// exercise the parallel kernels.
func denseRandomish(nr, nc int) *Matrix[int64] {
	b := NewBuilder[int64](nr, nc)
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			if (i*31+j*17)%3 == 0 {
				b.Add(i, j, int64(1+(i+j)%5))
			}
		}
	}
	return b.MustBuild()
}

func TestMxMParallelContextCancelled(t *testing.T) {
	m := denseRandomish(64, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MxMParallelContext(ctx, m, m, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := MxMParallelContext(ctx, m, m, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial path err = %v, want context.Canceled", err)
	}
}

func TestKronParallelContextCancelled(t *testing.T) {
	m := denseRandomish(16, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := KronParallelContext(ctx, m, m, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestParallelContextMatchesSerial(t *testing.T) {
	a := denseRandomish(40, 30)
	b := denseRandomish(30, 50)
	want, err := MxM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MxMParallelContext(context.Background(), a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(want, got) {
		t.Fatal("MxMParallelContext differs from MxM")
	}
	wantK, err := Kron(a, b)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := KronParallelContext(context.Background(), a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(wantK, gotK) {
		t.Fatal("KronParallelContext differs from Kron")
	}
}
