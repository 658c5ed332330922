package exec

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// recordSink remembers every edge, the batch sizes it arrived in, and
// whether Flush ran.
type recordSink struct {
	edges   []Edge
	batches []int
	flushed bool
	failAt  int // fail on the batch containing the failAt-th edge (1-based); 0 = never
}

func (r *recordSink) EdgeBatch(batch []Edge) error {
	if r.failAt > 0 && len(r.edges)+len(batch) >= r.failAt {
		return errors.New("sink failure")
	}
	r.edges = append(r.edges, batch...)
	r.batches = append(r.batches, len(batch))
	return nil
}

func (r *recordSink) Flush() error {
	r.flushed = true
	return nil
}

func TestCountingSinkConcurrent(t *testing.T) {
	var c CountingSink
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.EdgeBatch(batchOf(1, j))
			}
		}()
	}
	wg.Wait()
	if c.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", c.Count())
	}
}

func TestMultiSink(t *testing.T) {
	a, b := &recordSink{}, &recordSink{}
	m := MultiSink{a, b}
	if err := m.EdgeBatch(batchOf(6, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Finish(m); err != nil {
		t.Fatal(err)
	}
	if len(a.edges) != 6 || len(b.edges) != 6 || !a.flushed || !b.flushed {
		t.Fatalf("multi sink state: %+v %+v", a, b)
	}
	if len(a.batches) != 1 || a.batches[0] != 6 {
		t.Fatalf("member got batches %v, want one wholesale delivery of 6", a.batches)
	}
	bad := MultiSink{&recordSink{failAt: 1}, a}
	if err := bad.EdgeBatch(batchOf(1, 3)); err == nil {
		t.Fatal("multi sink swallowed member error")
	}
	if len(a.edges) != 6 {
		t.Fatal("multi sink continued past failing member")
	}
}

func TestTSVSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewTSVSink(&buf)
	for i := 0; i < 3; i++ {
		if err := s.EdgeBatch([]Edge{{i * 10, i*10 + 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Finish(s); err != nil {
		t.Fatal(err)
	}
	want := "0\t1\n10\t11\n20\t21\n"
	if buf.String() != want {
		t.Fatalf("tsv output %q, want %q", buf.String(), want)
	}
}

func TestScratchPools(t *testing.T) {
	a := GetInt64s(100)
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		a[i] = int64(i)
	}
	PutInt64s(a)
	b := GetInt64s(50)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %d", i, v)
		}
	}
	PutInt64s(b)

	is := GetInts(7)
	is[0] = 9
	PutInts(is)
	is2 := GetInts(7)
	if is2[0] != 0 {
		t.Fatal("recycled int slice not cleared")
	}
	PutInts(is2)

	// Growing requests after small puts still work.
	PutInts(make([]int, 1))
	big := GetInts(1 << 12)
	if len(big) != 1<<12 {
		t.Fatalf("grew to %d", len(big))
	}
	for i, v := range big {
		if v != 0 {
			t.Fatalf("big slice dirty at %d", i)
		}
	}
}

func ExampleCountingSink() {
	var c CountingSink
	s := MultiSink{&c}
	for i := 0; i < 3; i++ {
		s.EdgeBatch([]Edge{{i, i + 1}})
	}
	fmt.Println(c.Count())
	// Output: 3
}
