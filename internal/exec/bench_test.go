package exec

import (
	"context"
	"sync"
	"testing"
)

// BenchmarkShardedOverhead measures the fixed cost of scheduling a batch of
// trivial shards — the engine tax every parallel path pays.
func BenchmarkShardedOverhead(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if err := Sharded(ctx, 16, func(context.Context, int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedVsWaitGroup compares the engine against the hand-rolled
// pool it replaced, over a small CPU-bound payload.
func BenchmarkShardedVsWaitGroup(b *testing.B) {
	const nshards, work = 8, 1 << 14
	payload := func(s int) int64 {
		var acc int64
		for i := 0; i < work; i++ {
			acc += int64(s * i)
		}
		return acc
	}
	b.Run("exec.Sharded", func(b *testing.B) {
		ctx := context.Background()
		sink := make([]int64, nshards)
		for i := 0; i < b.N; i++ {
			if err := Sharded(ctx, nshards, func(_ context.Context, s int) error {
				sink[s] = payload(s)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sync.WaitGroup", func(b *testing.B) {
		sink := make([]int64, nshards)
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for s := 0; s < nshards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					sink[s] = payload(s)
				}(s)
			}
			wg.Wait()
		}
	})
}

// BenchmarkPollerCancelled measures the per-iteration probe cost inside hot
// loops under a cancellable context.
func BenchmarkPollerCancelled(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPoller(ctx, 1024)
	for i := 0; i < b.N; i++ {
		if p.Cancelled() {
			b.Fatal("tripped")
		}
	}
}

// BenchmarkScratchPool compares pooled scratch acquisition against fresh
// allocation at the size the butterfly counters use per worker.
func BenchmarkScratchPool(b *testing.B) {
	const n = 1 << 16
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := GetInt64s(n)
			s[0] = 1
			PutInt64s(s)
		}
	})
	b.Run("make", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := make([]int64, n)
			s[0] = 1
			_ = s
		}
	})
}
