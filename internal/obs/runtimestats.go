package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// RuntimeCollector samples the Go runtime (via runtime/metrics) into
// runtime.* gauges on a Registry, so the exported /metrics and
// /metrics.json views answer "why is this replica slow" questions — GC
// pressure, scheduler latency, heap growth — next to the service's own
// counters:
//
//	runtime.heap_bytes           live heap (in-use object bytes)
//	runtime.live_objects         live heap object count
//	runtime.goroutines           current goroutine count
//	runtime.gc_cycles            completed GC cycles
//	runtime.gc_pause_p99_us      p99 GC stop-the-world pause over the
//	                             window since the previous sample (µs)
//	runtime.sched_latency_p99_us p99 time runnable goroutines waited
//	                             for a thread, same windowing (µs)
//	runtime.gc_cpu_permille      share of CPU spent in GC since the
//	                             previous sample, ×1000
//
// Sampling is pull-driven like SLO.MaybeTick: MaybeSample is invoked
// from the scrape paths (the /metrics handlers, the serve readiness
// flow, the progress reporter) and rate-limited to MinInterval, so an
// idle process pays nothing and no goroutine runs unless Start is
// asked for one (-runtime-sample, for generation runs that want steady
// cadence without a scraper).  The histogram-derived gauges are
// windowed deltas between consecutive samples — "pauses lately", not
// "pauses since process start" — which is what a dashboard watching a
// long run needs.
//
// Cost contract (DESIGN.md §6a): one metrics.Read over a fixed,
// preallocated sample set per sample — a handful of microseconds, no
// stop-the-world, two small histogram-count copies — and at most one
// sample per MinInterval no matter how many scrapers poll.
type RuntimeCollector struct {
	reg *Registry
	opt RuntimeOptions

	gHeapBytes   *Gauge
	gLiveObjects *Gauge
	gGoroutines  *Gauge
	gGCCycles    *Gauge
	gGCPauseP99  *Gauge
	gSchedP99    *Gauge
	gGCPermille  *Gauge

	mu      sync.Mutex
	samples []metrics.Sample // fixed descriptor set, reused every read
	// previous cumulative state for the windowed (delta) gauges
	prevPause, prevSched histState
	prevGCCPU, prevCPU   float64
	havePrev             bool
	last                 time.Time
}

// histState is a copy of one Float64Histogram's cumulative counts; the
// bucket boundaries are stable for the process lifetime so only counts
// are kept.
type histState struct {
	counts  []uint64
	buckets []float64
}

// RuntimeOptions configures a collector; zero values select defaults.
type RuntimeOptions struct {
	// MinInterval rate-limits MaybeSample (default 1s).
	MinInterval time.Duration
}

func (o RuntimeOptions) withDefaults() RuntimeOptions {
	if o.MinInterval <= 0 {
		o.MinInterval = time.Second
	}
	return o
}

// The fixed descriptor set, in the order the samples slice is built.
// Names missing from the running Go version read as KindBad and are
// skipped, so the collector degrades instead of panicking on older
// runtimes.
const (
	rmHeapBytes   = "/memory/classes/heap/objects:bytes"
	rmLiveObjects = "/gc/heap/objects:objects"
	rmGoroutines  = "/sched/goroutines:goroutines"
	rmGCCycles    = "/gc/cycles/total:gc-cycles"
	rmGCPauses    = "/gc/pauses:seconds"
	rmSchedLat    = "/sched/latencies:seconds"
	rmGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

var runtimeSampleNames = []string{
	rmHeapBytes, rmLiveObjects, rmGoroutines, rmGCCycles,
	rmGCPauses, rmSchedLat, rmGCCPU, rmTotalCPU,
}

// NewRuntimeCollector builds a collector publishing on reg (nil selects
// Default).  The gauges are registered eagerly so the exported name set
// is deterministic from the first scrape.
func NewRuntimeCollector(reg *Registry, opt RuntimeOptions) *RuntimeCollector {
	if reg == nil {
		reg = Default
	}
	c := &RuntimeCollector{
		reg: reg,
		opt: opt.withDefaults(),

		gHeapBytes:   reg.Gauge("runtime.heap_bytes"),
		gLiveObjects: reg.Gauge("runtime.live_objects"),
		gGoroutines:  reg.Gauge("runtime.goroutines"),
		gGCCycles:    reg.Gauge("runtime.gc_cycles"),
		gGCPauseP99:  reg.Gauge("runtime.gc_pause_p99_us"),
		gSchedP99:    reg.Gauge("runtime.sched_latency_p99_us"),
		gGCPermille:  reg.Gauge("runtime.gc_cpu_permille"),
	}
	reg.SetHelp("runtime.heap_bytes", "Live heap bytes (in-use objects), sampled from runtime/metrics.")
	reg.SetHelp("runtime.gc_pause_p99_us", "p99 GC stop-the-world pause in microseconds over the last sample window.")
	reg.SetHelp("runtime.sched_latency_p99_us", "p99 scheduler latency in microseconds over the last sample window.")
	reg.SetHelp("runtime.gc_cpu_permille", "Share of CPU spent in GC over the last sample window, x1000.")
	c.samples = make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		c.samples[i].Name = name
	}
	return c
}

// defaultRuntime is the lazily-built collector over Default that the
// scrape paths tick; lazy so that registries in tests that never scrape
// runtime stats do not grow runtime.* names as an import side effect.
var (
	defaultRuntimeOnce sync.Once
	defaultRuntime     *RuntimeCollector
)

// DefaultRuntime returns the process-wide collector over the Default
// registry, building it on first use.
func DefaultRuntime() *RuntimeCollector {
	defaultRuntimeOnce.Do(func() {
		defaultRuntime = NewRuntimeCollector(Default, RuntimeOptions{})
	})
	return defaultRuntime
}

// MaybeSample samples at most once per MinInterval: calls landing
// closer to the previous sample return immediately.  This is the hook
// the scrape handlers call — the scraper IS the clock.
func (c *RuntimeCollector) MaybeSample(now time.Time) {
	c.mu.Lock()
	if !c.last.IsZero() && now.Sub(c.last) < c.opt.MinInterval {
		c.mu.Unlock()
		return
	}
	c.sampleLocked(now)
	c.mu.Unlock()
}

// Sample reads the runtime unconditionally and publishes the gauges.
func (c *RuntimeCollector) Sample(now time.Time) {
	c.mu.Lock()
	c.sampleLocked(now)
	c.mu.Unlock()
}

// HeapBytes samples (rate-limited) and returns the live-heap gauge —
// the progress reporter's per-tick heap readout.
func (c *RuntimeCollector) HeapBytes(now time.Time) int64 {
	c.MaybeSample(now)
	return c.gHeapBytes.Value()
}

func (c *RuntimeCollector) sampleLocked(now time.Time) {
	c.last = now
	metrics.Read(c.samples)
	var curPause, curSched histState
	var gcCPU, totalCPU float64
	for i := range c.samples {
		s := &c.samples[i]
		switch s.Name {
		case rmHeapBytes:
			if v, ok := sampleUint(s); ok {
				c.gHeapBytes.Set(v)
			}
		case rmLiveObjects:
			if v, ok := sampleUint(s); ok {
				c.gLiveObjects.Set(v)
			}
		case rmGoroutines:
			if v, ok := sampleUint(s); ok {
				c.gGoroutines.Set(v)
			}
		case rmGCCycles:
			if v, ok := sampleUint(s); ok {
				c.gGCCycles.Set(v)
			}
		case rmGCPauses:
			curPause = copyHist(s)
		case rmSchedLat:
			curSched = copyHist(s)
		case rmGCCPU:
			if s.Value.Kind() == metrics.KindFloat64 {
				gcCPU = s.Value.Float64()
			}
		case rmTotalCPU:
			if s.Value.Kind() == metrics.KindFloat64 {
				totalCPU = s.Value.Float64()
			}
		}
	}

	// Windowed p99s: nearest-rank over the count delta since the
	// previous sample.  The first sample has no baseline and reports the
	// cumulative distribution (everything since process start).
	var prevPause, prevSched histState
	if c.havePrev {
		prevPause, prevSched = c.prevPause, c.prevSched
	}
	c.gGCPauseP99.Set(histP99Micros(curPause, prevPause))
	c.gSchedP99.Set(histP99Micros(curSched, prevSched))

	// GC CPU share over the window; cumulative on the first sample.
	dGC, dTotal := gcCPU, totalCPU
	if c.havePrev {
		dGC -= c.prevGCCPU
		dTotal -= c.prevCPU
	}
	if dTotal > 0 && dGC >= 0 {
		c.gGCPermille.Set(int64(dGC / dTotal * 1000))
	}

	c.prevPause, c.prevSched = curPause, curSched
	c.prevGCCPU, c.prevCPU = gcCPU, totalCPU
	c.havePrev = true

	// Periodic metric snapshot into the flight ring: a post-mortem dump
	// shows the heap/goroutine trajectory leading up to the event.
	Flight.Record(FlightDebug, "snapshot", "runtime sample",
		c.gHeapBytes.Value(), c.gGoroutines.Value())
}

// sampleUint extracts an integer-valued sample; false for KindBad
// (metric absent in this Go version).
func sampleUint(s *metrics.Sample) (int64, bool) {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0, false
	}
	return int64(s.Value.Uint64()), true
}

// copyHist snapshots a Float64Histogram's counts.  The copy is owned by
// the collector (metrics.Read reuses the returned histogram's storage on
// the next call), so it cannot alias the sample.
func copyHist(s *metrics.Sample) histState {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return histState{}
	}
	h := s.Value.Float64Histogram()
	if h == nil {
		return histState{}
	}
	st := histState{buckets: h.Buckets, counts: make([]uint64, len(h.Counts))}
	copy(st.counts, h.Counts)
	return st
}

// histP99Micros computes the nearest-rank p99 (in whole microseconds)
// over the delta between two cumulative runtime/metrics histograms.
// Bucket boundaries are [Buckets[i], Buckets[i+1]); the reported value
// is the bucket's upper bound, matching the SLO evaluator's quantized
// convention.  An empty window reports zero.
func histP99Micros(cur, prev histState) int64 {
	if len(cur.counts) == 0 {
		return 0
	}
	var total uint64
	deltas := make([]uint64, len(cur.counts))
	for i, c := range cur.counts {
		d := c
		if i < len(prev.counts) && prev.counts[i] <= c {
			d = c - prev.counts[i]
		}
		deltas[i] = d
		total += d
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100 // ceil(0.99 * total)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, d := range deltas {
		cum += d
		if cum >= rank {
			// Upper bound of bucket i is Buckets[i+1]; the final bucket's
			// bound is +Inf — report the last finite boundary instead.
			ub := 0.0
			switch {
			case i+1 < len(cur.buckets) && !isInf(cur.buckets[i+1]):
				ub = cur.buckets[i+1]
			case len(cur.buckets) > 0:
				for j := len(cur.buckets) - 1; j >= 0; j-- {
					if !isInf(cur.buckets[j]) {
						ub = cur.buckets[j]
						break
					}
				}
			}
			return int64(ub * 1e6)
		}
	}
	return 0
}

func isInf(v float64) bool { return v > 1e308 || v < -1e308 }

// Start launches a fixed-cadence sampling goroutine (the -runtime-sample
// flag) and returns a stop function.  Intervals below MinInterval are
// honored as given — an explicit flag overrides the scrape rate limit.
func (c *RuntimeCollector) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				c.Sample(time.Now()) // final sample so the exit snapshot is fresh
				return
			case now := <-ticker.C:
				c.Sample(now)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
