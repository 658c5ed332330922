package exec

import "sync"

// Per-worker scratch memory.  The counters and kernels allocate O(n)
// accumulator/marker slices per worker per call; under a serving workload
// those calls repeat millions of times, so the slices are recycled through
// typed sync.Pools.  Get* returns a zeroed slice of length n; Put* recycles
// it.  Never Put a slice that is still referenced elsewhere.

type slicePool[T any] struct{ p sync.Pool }

func (sp *slicePool[T]) get(n int) []T {
	if v := sp.p.Get(); v != nil {
		s := *v.(*[]T)
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]T, n)
}

func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	sp.p.Put(&s)
}

var (
	int64Pool slicePool[int64]
	intPool   slicePool[int]
)

// GetInt64s returns a zeroed []int64 of length n from the pool.
func GetInt64s(n int) []int64 { return int64Pool.get(n) }

// PutInt64s recycles a slice obtained from GetInt64s.
func PutInt64s(s []int64) { int64Pool.put(s) }

// GetInts returns a zeroed []int of length n from the pool.
func GetInts(n int) []int { return intPool.get(n) }

// PutInts recycles a slice obtained from GetInts.
func PutInts(s []int) { intPool.put(s) }
