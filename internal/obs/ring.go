package obs

import "sync"

// Ring is a fixed-capacity ring buffer safe for concurrent use: Add
// overwrites the oldest item once the ring is full, and Snapshot copies
// the retained items oldest-first with the number overwritten.  The
// backing array is allocated on the first Add, so a ring nobody writes
// to costs nothing, and Add is allocation-free after that.  The flight
// recorder and timeline.Recorder are both built on it.
type Ring[T any] struct {
	mu    sync.Mutex
	cap   int
	items []T    // allocated on first Add
	n     uint64 // items ever added
}

// NewRing returns a ring that keeps the last capacity items; capacity
// must be positive.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{cap: capacity}
}

// Add appends v, overwriting the oldest item once the ring is full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	if r.items == nil {
		r.items = make([]T, r.cap)
	}
	r.items[r.n%uint64(r.cap)] = v
	r.n++
	r.mu.Unlock()
}

// Snapshot copies the retained items oldest-first (nil when there are
// none) and reports how many older items the ring has overwritten.
func (r *Ring[T]) Snapshot() (items []T, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n <= uint64(r.cap) {
		return append([]T(nil), r.items[:r.n]...), 0
	}
	head := r.n % uint64(r.cap)
	items = append(make([]T, 0, r.cap), r.items[head:]...)
	return append(items, r.items[:head]...), r.n - uint64(r.cap)
}

// Len reports how many items the ring retains.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.n, uint64(r.cap)))
}

// Reset drops every item and releases the backing array.
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	r.items, r.n = nil, 0
	r.mu.Unlock()
}
