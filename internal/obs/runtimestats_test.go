package obs

import (
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRuntimeCollectorPublishesGauges(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, RuntimeOptions{})
	c.Sample(time.Now())
	snap := r.Snapshot()
	if v := snap.Gauges["runtime.heap_bytes"]; v <= 0 {
		t.Fatalf("runtime.heap_bytes = %d, want > 0", v)
	}
	if v := snap.Gauges["runtime.live_objects"]; v <= 0 {
		t.Fatalf("runtime.live_objects = %d, want > 0", v)
	}
	if v := snap.Gauges["runtime.goroutines"]; v < 1 {
		t.Fatalf("runtime.goroutines = %d, want >= 1", v)
	}
	// Registered eagerly: the name set is complete even before any
	// GC/sched activity moved the windowed gauges.
	for _, name := range []string{
		"runtime.gc_cycles", "runtime.gc_pause_p99_us",
		"runtime.sched_latency_p99_us", "runtime.gc_cpu_permille",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s not registered", name)
		}
	}
}

func TestRuntimeCollectorRateLimit(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, RuntimeOptions{MinInterval: time.Hour})
	base := time.Now()
	c.MaybeSample(base)
	if c.last != base {
		t.Fatalf("first MaybeSample did not sample")
	}
	// Inside the interval: rate-limited, the sample stamp must not move.
	c.MaybeSample(base.Add(time.Minute))
	if c.last != base {
		t.Fatalf("MaybeSample inside MinInterval re-sampled (last = %v)", c.last)
	}
	// Past the interval: samples again.
	later := base.Add(2 * time.Hour)
	c.MaybeSample(later)
	if c.last != later {
		t.Fatalf("MaybeSample past MinInterval did not sample (last = %v)", c.last)
	}
	// Sample is unconditional.
	forced := later.Add(time.Second)
	c.Sample(forced)
	if c.last != forced {
		t.Fatalf("Sample did not bypass the rate limit (last = %v)", c.last)
	}
}

func TestRuntimeCollectorWindowedPause(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, RuntimeOptions{})
	c.Sample(time.Now())
	// Force GC cycles so the second sample has a non-empty pause window;
	// the windowed p99 must be a sane pause (under a second), not a
	// lifetime aggregate artifact.
	runtime.GC()
	runtime.GC()
	c.Sample(time.Now())
	p99 := r.Snapshot().Gauges["runtime.gc_pause_p99_us"]
	if p99 < 0 || p99 > 1e6 {
		t.Fatalf("windowed gc pause p99 = %dus, want [0, 1s]", p99)
	}
	if cycles := r.Snapshot().Gauges["runtime.gc_cycles"]; cycles < 2 {
		t.Fatalf("runtime.gc_cycles = %d after two forced GCs", cycles)
	}
}

func TestHistP99Micros(t *testing.T) {
	// Buckets [0, 1ms, 10ms, +Inf); cumulative counts place everything
	// new in the 1–10ms bucket, so the windowed p99 is its 10ms bound.
	buckets := []float64{0, 0.001, 0.010, inf()}
	prev := histState{buckets: buckets, counts: []uint64{5, 0, 0}}
	cur := histState{buckets: buckets, counts: []uint64{5, 100, 0}}
	if got := histP99Micros(cur, prev); got != 10000 {
		t.Fatalf("p99 = %dus, want 10000", got)
	}
	// Empty window: zero.
	if got := histP99Micros(prev, prev); got != 0 {
		t.Fatalf("empty-window p99 = %dus, want 0", got)
	}
	// Rank landing in the +Inf bucket reports the last finite bound.
	tail := histState{buckets: buckets, counts: []uint64{0, 0, 50}}
	if got := histP99Micros(tail, histState{}); got != 10000 {
		t.Fatalf("+Inf-bucket p99 = %dus, want 10000 (last finite bound)", got)
	}
}

func TestRuntimeCollectorStart(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, RuntimeOptions{})
	if stop := c.Start(0); stop == nil {
		t.Fatal("Start(0) returned nil stop")
	} else {
		stop() // no goroutine to stop; must still be callable
	}
	stop := c.Start(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	stop()
	stop() // double-stop is safe
	if r.Snapshot().Gauges["runtime.heap_bytes"] <= 0 {
		t.Fatal("background sampler never published")
	}
}

// TestRuntimeCollectorSampleVsScrape races fixed-cadence sampling,
// pull-driven MaybeSample, and exporter scrapes; run under -race (make
// race) it proves the collector's lock discipline against the registry
// render paths.
func TestRuntimeCollectorSampleVsScrape(t *testing.T) {
	r := NewRegistry()
	c := NewRuntimeCollector(r, RuntimeOptions{MinInterval: time.Microsecond})
	stop := c.Start(100 * time.Microsecond)
	defer stop()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.MaybeSample(time.Now())
				_ = r.WritePrometheus(io.Discard)
				_ = r.Snapshot()
				_ = c.HeapBytes(time.Now())
			}
		}()
	}
	wg.Wait()
}

func inf() float64 { return math.Inf(1) }
