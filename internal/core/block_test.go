package core

import (
	"context"
	"errors"
	"testing"

	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
)

// blockTestProducts covers the blocked walker's three code paths: the
// K = 1 two-factor loop (both modes, self-loop rows included) and the
// K >= 2 chain recursion.
func blockTestProducts(t *testing.T) map[string]*Product {
	t.Helper()
	out := map[string]*Product{}
	for name, p := range testProducts(t) {
		out[name] = p
	}
	chain, err := Chain(gen.Path(3), ModeSelfLoopFactor, gen.Path(2), gen.Star(3))
	if err != nil {
		t.Fatal(err)
	}
	out["chain"] = chain
	chainNB, err := Chain(gen.Complete(3), ModeNonBipartiteFactor, gen.Crown(3).Graph, gen.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	out["chain-nonbip"] = chainNB
	return out
}

// TestEachEdgeBlockPartition: the union over all R×C blocks is exactly
// the EachEdge set, with no edge in two blocks, and each block's
// streamed count lands exactly on the BlockEdgeCount closed form.
func TestEachEdgeBlockPartition(t *testing.T) {
	for name, p := range blockTestProducts(t) {
		want := collectEdges(p)
		for _, rc := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 5}, {7, 1}, {4, 1000}} {
			rows, cols := rc[0], rc[1]
			var got []graph.Edge
			seen := map[graph.Edge]bool{}
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					expect, err := p.BlockEdgeCount(r, rows, c, cols)
					if err != nil {
						t.Fatal(err)
					}
					var n int64
					if err := blockEdges(p, r, rows, c, cols, func(v, w int) bool {
						n++
						if v > w {
							v, w = w, v
						}
						e := graph.Edge{U: v, V: w}
						if seen[e] {
							t.Fatalf("%s %dx%d: edge %v in two blocks", name, rows, cols, e)
						}
						seen[e] = true
						got = append(got, e)
						return true
					}); err != nil {
						t.Fatal(err)
					}
					if n != expect {
						t.Fatalf("%s block (%d,%d) of %dx%d: streamed %d, BlockEdgeCount says %d",
							name, r, c, rows, cols, n, expect)
					}
				}
			}
			sortEdges(got)
			if len(got) != len(want) {
				t.Fatalf("%s %dx%d: %d edges, want %d", name, rows, cols, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %dx%d: edge sets differ at %d", name, rows, cols, i)
				}
			}
		}
	}
}

// TestBlockEdgeCountFoldsToShard: summing a row band's blocks over every
// column reproduces the closed form of the full-width block (the band's
// shard), and a 1×1 blocking is the whole product.
func TestBlockEdgeCountFoldsToShard(t *testing.T) {
	for name, p := range blockTestProducts(t) {
		for _, rows := range []int{1, 2, 5} {
			for _, cols := range []int{1, 2, 4} {
				for r := 0; r < rows; r++ {
					shardWant, err := p.BlockEdgeCount(r, rows, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					var sum int64
					for c := 0; c < cols; c++ {
						n, err := p.BlockEdgeCount(r, rows, c, cols)
						if err != nil {
							t.Fatal(err)
						}
						sum += n
					}
					if sum != shardWant {
						t.Fatalf("%s row %d/%d over %d cols: blocks sum to %d, shard closed form %d",
							name, r, rows, cols, sum, shardWant)
					}
				}
			}
		}
		if n, err := p.BlockEdgeCount(0, 1, 0, 1); err != nil || n != p.NumEdges() {
			t.Fatalf("%s: 1x1 block count = %d (%v), want |E_C|=%d", name, n, err, p.NumEdges())
		}
	}
}

// TestEachEdgeBlockCanonicalOrder: block (0,0) of 1×1 reproduces the
// canonical EachEdge sequence edge for edge, and a full-width block
// equals the sequence the parallel stream delivers for that shard.
func TestEachEdgeBlockCanonicalOrder(t *testing.T) {
	for name, p := range blockTestProducts(t) {
		var canon [][2]int
		p.EachEdge(func(v, w int) bool { canon = append(canon, [2]int{v, w}); return true })
		var blocked [][2]int
		if err := blockEdges(p, 0, 1, 0, 1, func(v, w int) bool {
			blocked = append(blocked, [2]int{v, w})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(blocked) != len(canon) {
			t.Fatalf("%s: 1x1 block streamed %d edges, canonical %d", name, len(blocked), len(canon))
		}
		for i := range canon {
			if blocked[i] != canon[i] {
				t.Fatalf("%s: 1x1 block order diverges from canonical at %d: %v vs %v",
					name, i, blocked[i], canon[i])
			}
		}
		// Full-width column == the parallel stream's shard, for every row band.
		shards := make([][][2]int, 3)
		if err := p.StreamEdgesParallelContext(context.Background(), 3, func(s int) exec.Sink {
			return exec.SinkFunc(func(v, w int) error {
				shards[s] = append(shards[s], [2]int{v, w})
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			var block [][2]int
			shard := shards[r]
			if err := blockEdges(p, r, 3, 0, 1, func(v, w int) bool {
				block = append(block, [2]int{v, w})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(shard) != len(block) {
				t.Fatalf("%s row %d: full-width block %d edges vs shard %d", name, r, len(block), len(shard))
			}
			for i := range shard {
				if shard[i] != block[i] {
					t.Fatalf("%s row %d: full-width block diverges from shard at %d", name, r, i)
				}
			}
		}
	}
}

func TestEachEdgeBlockValidation(t *testing.T) {
	p := blockTestProducts(t)["chain"]
	cases := []struct{ row, rows, col, cols int }{
		{0, 0, 0, 1},  // nrows = 0
		{2, 2, 0, 1},  // row out of range
		{0, 1, 0, 0},  // ncols = 0
		{0, 1, 1, 1},  // col out of range
		{0, 1, -1, 2}, // negative col
	}
	for _, c := range cases {
		if _, err := p.BlockEdgeCount(c.row, c.rows, c.col, c.cols); err == nil {
			t.Errorf("BlockEdgeCount accepted (%d,%d,%d,%d)", c.row, c.rows, c.col, c.cols)
		}
		if err := blockEdges(p, c.row, c.rows, c.col, c.cols, func(_, _ int) bool { return true }); err == nil {
			t.Errorf("EachEdgeBlockBatchContext accepted (%d,%d,%d,%d)", c.row, c.rows, c.col, c.cols)
		}
	}
}

func TestEachEdgeBlockEarlyStop(t *testing.T) {
	p := blockTestProducts(t)["chain"]
	n := 0
	if err := blockEdges(p, 0, 1, 0, 2, func(_, _ int) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop streamed %d, want 5", n)
	}
}

// TestEachEdgeBlockContextCancel: a pre-cancelled block walk delivers
// nothing, a cancellation inside the first batch stops the walk after
// that batch with ctx.Err(), and a background context completes.
func TestEachEdgeBlockContextCancel(t *testing.T) {
	p := blockTestProducts(t)["mode2"]
	// Pre-cancelled: no edges, ctx.Err back.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	err := p.EachEdgeBlockBatchContext(ctx, 0, 1, 0, 2, func(batch []exec.Edge) bool { n += len(batch); return true })
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("pre-cancelled block streamed %d edges, err=%v", n, err)
	}
	// Mid-stream: cancel from inside yield; the walker must stop after the
	// batch in flight and surface ctx.Err.  Needs a block of several
	// batches, so the cancellation is observed before it runs dry.
	big := bigStreamProduct(t)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	n = 0
	err = batched(func(y func([]exec.Edge) bool) error {
		return big.EachEdgeBlockBatchContext(ctx2, 0, 1, 0, 2, y)
	})(func(_, _ int) bool {
		n++
		if n == 10 {
			cancel2()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: err=%v, want context.Canceled", err)
	}
	if int64(n) >= big.NumEdges() {
		t.Fatalf("cancelled block streamed the whole product (%d edges)", n)
	}
	if n > exec.BatchLen {
		t.Fatalf("cancelled block delivered %d edges, more than the batch in flight (%d)", n, exec.BatchLen)
	}
	// Background context takes the zero-overhead path and completes.
	var total int64
	if err := blockEdges(p, 0, 2, 1, 3, func(_, _ int) bool {
		total++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want, err := p.BlockEdgeCount(0, 2, 1, 3)
	if err != nil || total != want {
		t.Fatalf("background block streamed %d, want %d (%v)", total, want, err)
	}
}
