package core

import (
	"context"
	"math/rand"
	"testing"

	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
)

// orderedEdges collects the canonical EachEdge stream without
// normalizing orientation — range equivalence is about order, not sets.
func orderedEdges(p *Product) []graph.Edge {
	out := make([]graph.Edge, 0, p.NumEdges())
	p.EachEdge(func(v, w int) bool {
		out = append(out, graph.Edge{U: v, V: w})
		return true
	})
	return out
}

// rangeBoundaries picks the interesting offsets for a product: the
// ends, every term start, the first row boundaries, mid-row offsets and
// a sprinkling of random positions.
func rangeBoundaries(p *Product, rng *rand.Rand) []int64 {
	n := p.NumEdges()
	ks := []int64{0, n}
	ks = append(ks, p.TermEdgeStarts()...)
	for t := 0; t < len(p.termOff)-1; t++ {
		if p.termOff[t+1] > p.termOff[t] && p.termPer[t] > 0 {
			// first row boundary and a mid-row offset of this term
			ks = append(ks, p.termPer[t], p.termPer[t]/2+1)
		}
	}
	for i := 0; i < 8; i++ {
		ks = append(ks, rng.Int63n(n+1))
	}
	out := ks[:0]
	for _, k := range ks {
		if k >= 0 && k <= n {
			out = append(out, k)
		}
	}
	return out
}

// TestEachEdgeRangeEquivalence: the range walk over [lo, hi) reproduces
// the exact [lo, hi) slice of the canonical order for boundaries at terms,
// rows, mid-row offsets and random positions — the closed-form seek
// agrees with actually streaming the prefix.
func TestEachEdgeRangeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, p := range blockTestProducts(t) {
		full := orderedEdges(p)
		ks := rangeBoundaries(p, rng)
		for _, lo := range ks {
			for _, hi := range ks {
				if hi < lo {
					continue
				}
				got := make([]graph.Edge, 0, hi-lo)
				if err := rangeEdges(p, lo, hi, func(v, w int) bool {
					got = append(got, graph.Edge{U: v, V: w})
					return true
				}); err != nil {
					t.Fatalf("%s [%d,%d): %v", name, lo, hi, err)
				}
				if int64(len(got)) != hi-lo {
					t.Fatalf("%s [%d,%d): got %d edges", name, lo, hi, len(got))
				}
				for i, e := range got {
					if e != full[lo+int64(i)] {
						t.Fatalf("%s [%d,%d): edge %d is %v, want %v", name, lo, hi, i, e, full[lo+int64(i)])
					}
				}
			}
		}
	}
}

// TestEachEdgeRangeSplitConcat: splitting the stream at any k and
// concatenating [0,k)+[k,|E|) reproduces the full canonical order —
// the resume contract serve's ?offset= relies on.
func TestEachEdgeRangeSplitConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, p := range blockTestProducts(t) {
		full := orderedEdges(p)
		n := p.NumEdges()
		for _, k := range rangeBoundaries(p, rng) {
			var got []graph.Edge
			for _, r := range [][2]int64{{0, k}, {k, n}} {
				if err := rangeEdges(p, r[0], r[1], func(v, w int) bool {
					got = append(got, graph.Edge{U: v, V: w})
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			if int64(len(got)) != n {
				t.Fatalf("%s split at %d: %d edges, want %d", name, k, len(got), n)
			}
			for i := range full {
				if got[i] != full[i] {
					t.Fatalf("%s split at %d: differs at %d", name, k, i)
				}
			}
		}
	}
}

func TestEachEdgeRangeErrors(t *testing.T) {
	for _, p := range testProducts(t) {
		n := p.NumEdges()
		for _, r := range [][2]int64{{-1, 0}, {0, n + 1}, {5, 4}, {n + 1, n + 1}} {
			if err := rangeEdges(p, r[0], r[1], func(_, _ int) bool { return true }); err == nil {
				t.Fatalf("range [%d,%d): expected error", r[0], r[1])
			}
		}
		// Early stop: yield returning false ends the walk without error.
		var seen int
		if err := rangeEdges(p, 1, n, func(_, _ int) bool { seen++; return seen < 3 }); err != nil {
			t.Fatal(err)
		}
		if seen != 3 {
			t.Fatalf("early stop saw %d edges, want 3", seen)
		}
	}
}

func TestEachEdgeRangeContextCancel(t *testing.T) {
	// Needs more edges than a batch so the cancellation is observed
	// mid-walk rather than the stream finishing first.
	p, err := New(gen.Complete(8), gen.Cycle(160), ModeNonBipartiteFactor)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() < 2*exec.BatchLen {
		t.Fatalf("test product too small: %d edges", p.NumEdges())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen int64
	err = batched(func(y func([]exec.Edge) bool) error {
		return p.EachEdgeRangeBatchContext(ctx, 1, p.NumEdges(), y)
	})(func(_, _ int) bool {
		seen++
		if seen == 10 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("cancelled range walk returned %v", err)
	}
	if seen < 10 || seen > exec.BatchLen {
		t.Fatalf("cancelled after %d edges", seen)
	}
}

// TestEachEdgeBlockRangeEquivalence: the block-local range walker
// reproduces exact slices of each block's canonical-restricted order,
// including mid-row starting offsets.
func TestEachEdgeBlockRangeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, p := range blockTestProducts(t) {
		for _, rc := range [][2]int{{1, 1}, {2, 3}, {3, 2}} {
			rows, cols := rc[0], rc[1]
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					var full []graph.Edge
					if err := blockEdges(p, r, rows, c, cols, func(v, w int) bool {
						full = append(full, graph.Edge{U: v, V: w})
						return true
					}); err != nil {
						t.Fatal(err)
					}
					n := int64(len(full))
					ks := []int64{0, n, n / 2, n / 3, n/3 + 1, n - 1}
					for i := 0; i < 4; i++ {
						ks = append(ks, rng.Int63n(n+1))
					}
					for _, lo := range ks {
						if lo < 0 || lo > n {
							continue
						}
						got := make([]graph.Edge, 0, n-lo)
						if err := blockRangeEdges(p, r, rows, c, cols, lo, n, func(v, w int) bool {
							got = append(got, graph.Edge{U: v, V: w})
							return true
						}); err != nil {
							t.Fatalf("%s block (%d,%d)/%dx%d [%d,%d): %v", name, r, c, rows, cols, lo, n, err)
						}
						if int64(len(got)) != n-lo {
							t.Fatalf("%s block (%d,%d)/%dx%d [%d,%d): %d edges", name, r, c, rows, cols, lo, n, len(got))
						}
						for i := range got {
							if got[i] != full[lo+int64(i)] {
								t.Fatalf("%s block (%d,%d)/%dx%d from %d: differs at %d", name, r, c, rows, cols, lo, i)
							}
						}
					}
					if err := blockRangeEdges(p, r, rows, c, cols, 0, n+1, func(_, _ int) bool { return true }); err == nil {
						t.Fatalf("%s block (%d,%d): hi beyond count accepted", name, r, c)
					}
				}
			}
		}
	}
}

// TestEachEdgeBlockBatchEquivalence: the batched block walker delivers
// the same edges in the same order as the definition-order oracle's
// restriction to the block, in batches of at most exec.BatchLen.
func TestEachEdgeBlockBatchEquivalence(t *testing.T) {
	for name, p := range blockTestProducts(t) {
		order := canonicalOrder(p)
		for _, rc := range [][2]int{{1, 1}, {2, 3}, {3, 1000}} {
			rows, cols := rc[0], rc[1]
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					var want []graph.Edge
					for _, e := range blockOf(order, p.numRows(), p.lastEdges(), r, rows, c, cols) {
						want = append(want, graph.Edge{U: e.v, V: e.w})
					}
					var got []graph.Edge
					err := p.EachEdgeBlockBatchContext(context.Background(), r, rows, c, cols, func(batch []exec.Edge) bool {
						if len(batch) > exec.BatchLen {
							t.Fatalf("batch of %d > BatchLen", len(batch))
						}
						for _, e := range batch {
							got = append(got, graph.Edge{U: e.V, V: e.W})
						}
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s block (%d,%d)/%dx%d: batch walker %d edges, oracle %d",
							name, r, c, rows, cols, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s block (%d,%d)/%dx%d: differs at %d", name, r, c, rows, cols, i)
						}
					}
				}
			}
		}
	}
}

// TestEachEdgeRangeBatch: batch delivery of a range concatenates to the
// same slice the per-edge walker yields.
func TestEachEdgeRangeBatch(t *testing.T) {
	for name, p := range blockTestProducts(t) {
		full := orderedEdges(p)
		n := p.NumEdges()
		lo, hi := n/3, n-n/4
		var got []graph.Edge
		err := p.EachEdgeRangeBatchContext(context.Background(), lo, hi, func(batch []exec.Edge) bool {
			for _, e := range batch {
				got = append(got, graph.Edge{U: e.V, V: e.W})
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != hi-lo {
			t.Fatalf("%s: %d edges, want %d", name, len(got), hi-lo)
		}
		for i := range got {
			if got[i] != full[lo+int64(i)] {
				t.Fatalf("%s: differs at %d", name, i)
			}
		}
	}
}

// TestTermEdgeStarts: the hard-cut schedule is strictly ascending from
// 0 to NumEdges, each cut seeks to a fresh row (offset 0), and the
// block-local variant ends exactly on BlockEdgeCount.
func TestTermEdgeStarts(t *testing.T) {
	for name, p := range blockTestProducts(t) {
		cuts := p.TermEdgeStarts()
		if cuts[len(cuts)-1] != p.NumEdges() {
			t.Fatalf("%s: last cut %d, want %d", name, cuts[len(cuts)-1], p.NumEdges())
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] {
				t.Fatalf("%s: cuts not ascending: %v", name, cuts)
			}
		}
		for _, cut := range cuts[:len(cuts)-1] {
			if _, _, off := p.seekEdge(cut); off != 0 {
				t.Fatalf("%s: cut %d seeks mid-row (off %d)", name, cut, off)
			}
		}
		bcuts, err := p.BlockTermEdgeStarts(1, 2, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.BlockEdgeCount(1, 2, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if bcuts[len(bcuts)-1] != want {
			t.Fatalf("%s: block cuts end at %d, BlockEdgeCount says %d", name, bcuts[len(bcuts)-1], want)
		}
	}
}
