package grb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestBuilderDuplicatesSum(t *testing.T) {
	b := NewBuilder[int64](2, 2)
	b.Add(0, 1, 3)
	b.Add(0, 1, 4)
	b.Add(1, 0, 1)
	m := b.MustBuild()
	if m.At(0, 1) != 7 {
		t.Fatalf("duplicate sum: got %d, want 7", m.At(0, 1))
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	cases := []struct{ i, j int }{{-1, 0}, {0, -1}, {2, 0}, {0, 2}}
	for _, tc := range cases {
		b := NewBuilder[int64](2, 2)
		b.Add(tc.i, tc.j, 1)
		if _, err := b.Build(); err == nil {
			t.Fatalf("Build accepted out-of-range entry (%d,%d)", tc.i, tc.j)
		}
	}
}

func TestBuilderAddSym(t *testing.T) {
	b := NewBuilder[int64](3, 3)
	b.AddSym(0, 1, 1)
	b.AddSym(2, 2, 5)
	m := b.MustBuild()
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Fatal("AddSym did not mirror off-diagonal entry")
	}
	if m.At(2, 2) != 5 {
		t.Fatalf("AddSym doubled diagonal entry: got %d, want 5", m.At(2, 2))
	}
	if !IsSymmetric(m) {
		t.Fatal("AddSym result not symmetric")
	}
}

func TestBuilderEmpty(t *testing.T) {
	m := NewBuilder[int64](4, 5).MustBuild()
	if m.NRows() != 4 || m.NCols() != 5 || m.NNZ() != 0 {
		t.Fatal("empty build has wrong shape")
	}
}

func TestBuilderReusable(t *testing.T) {
	b := NewBuilder[int64](2, 2)
	b.Add(0, 0, 1)
	m1 := b.MustBuild()
	b.Add(1, 1, 2)
	m2 := b.MustBuild()
	if m1.NNZ() != 1 {
		t.Fatal("first build changed after reuse")
	}
	if m2.NNZ() != 2 || m2.At(1, 1) != 2 {
		t.Fatal("second build missing accumulated entry")
	}
}

func TestBuilderUnsortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Insert a fixed entry set in random order; result must be canonical.
	type coord struct{ i, j int }
	want := map[coord]int64{}
	var coords []coord
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if rng.Float64() < 0.3 {
				c := coord{i, j}
				want[c] = int64(rng.Intn(9) + 1)
				coords = append(coords, c)
			}
		}
	}
	rng.Shuffle(len(coords), func(a, b int) { coords[a], coords[b] = coords[b], coords[a] })
	b := NewBuilder[int64](10, 10)
	for _, c := range coords {
		b.Add(c.i, c.j, want[c])
	}
	m := b.MustBuild()
	if m.NNZ() != len(want) {
		t.Fatalf("nnz = %d, want %d", m.NNZ(), len(want))
	}
	m.Iterate(func(i, j int, v int64) bool {
		if want[coord{i, j}] != v {
			t.Fatalf("entry (%d,%d) = %d, want %d", i, j, v, want[coord{i, j}])
		}
		return true
	})
}

// TestBuilderMatchesReference compares Build with a map-summed, sorted
// reference on random COO inputs: duplicates (few columns), empty rows
// (a random subset of rows used), zero sums, and in a quarter of the
// trials out-of-range entries, which must fail with the first bad
// entry's error.
func TestBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type coord struct{ i, j int }
	for trial := 0; trial < 500; trial++ {
		nr, nc := rng.Intn(12), 1+rng.Intn(8)
		b := NewBuilder[int64](nr, nc)
		sum := map[coord]int64{}
		var wantErr string
		for k := rng.Intn(80); nr > 0 && k > 0; k-- {
			c := coord{rng.Intn(1 + nr/2), rng.Intn(nc)}
			if trial%4 == 0 && rng.Intn(20) == 0 {
				c = [...]coord{{-1, 0}, {0, -1}, {nr, 0}, {0, nc}}[rng.Intn(4)]
				if wantErr == "" {
					wantErr = fmt.Sprintf("grb: entry (%d,%d) out of range for %dx%d matrix", c.i, c.j, nr, nc)
				}
			}
			v := int64(rng.Intn(7) - 3)
			b.Add(c.i, c.j, v)
			sum[c] += v
		}
		m, err := b.Build()
		if wantErr != "" {
			if err == nil || err.Error() != wantErr {
				t.Fatalf("trial %d: error %v, want %q", trial, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		keys := make([]coord, 0, len(sum))
		for c := range sum {
			keys = append(keys, c)
		}
		sort.Slice(keys, func(x, y int) bool {
			return keys[x].i < keys[y].i || keys[x].i == keys[y].i && keys[x].j < keys[y].j
		})
		rowPtr := make([]int, nr+1)
		colIdx := make([]int, len(keys))
		val := make([]int64, len(keys))
		for k, c := range keys {
			rowPtr[c.i+1]++
			colIdx[k], val[k] = c.j, sum[c]
		}
		for i := 0; i < nr; i++ {
			rowPtr[i+1] += rowPtr[i]
		}
		if !slices.Equal(m.rowPtr, rowPtr) || !slices.Equal(m.colIdx, colIdx) || !slices.Equal(m.val, val) {
			t.Fatalf("trial %d: CSR (%v, %v, %v), want (%v, %v, %v)", trial, m.rowPtr, m.colIdx, m.val, rowPtr, colIdx, val)
		}
	}
}

// TestBuilderSumsDuplicatesInInsertionOrder: float duplicates sum in the
// order they were added.  Row 0 interleaves two columns, 64 entries in
// all, so an unstable sort would reorder them; in insertion order column
// 0 sums 1e16, then 30 ones that each round away, then −1e16, to 0.
func TestBuilderSumsDuplicatesInInsertionOrder(t *testing.T) {
	b := NewBuilder[float64](1, 2)
	for k := 0; k < 32; k++ {
		v := 1.0
		switch k {
		case 0:
			v = 1e16
		case 31:
			v = -1e16
		}
		b.Add(0, 0, v)
		b.Add(0, 1, 5)
	}
	if got := b.MustBuild().At(0, 0); got != 0 {
		t.Fatalf("duplicate sum %v, want 0 (insertion order)", got)
	}
}
