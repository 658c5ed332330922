// Command perfbench is kronbip's end-to-end benchmark: one closed-loop
// load generator that drives fresh `kronbip serve` replicas over
// loopback through the public HTTP API and distgen.Run, verifies every
// op, and prints every metric by name with its unit.  With -trace 1 it
// also records spans around its calls and replays each op's layers in
// process, printing per-layer metrics and a ledger.
//
//	perfbench -workload chain-bin -seed 1 -seconds 20 -trace 0 -kronbip path/to/kronbip
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics.  run.sh builds both binaries and
// is the entry point.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setups is how many times each run sets up a fresh fleet; setup_s is
// their median, and the last fleet is the one measured.
const setups = 3

// rssEvery is the replica RSS sampling interval.
const rssEvery = 10 * time.Millisecond

// replays is how many ops the traced run replays in process; per-layer
// times are their medians.
const replays = 3

func main() {
	runtime.GOMAXPROCS(1) // the load generator is one process on one P
	workload := flag.String("workload", "", "workload to run: chain-bin, table1-ndjson or distgen-audit")
	seed := flag.Int64("seed", 1, "workload seed: every input of the run derives from it")
	seconds := flag.Int("seconds", 20, "how long the measured ops run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	bin := flag.String("kronbip", ".bench_build/bin/kronbip", "kronbip binary the replicas run")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for run records and traces")
	compare := flag.Bool("compare", false, "compare two run records given as arguments instead of running")
	spread := flag.Bool("spread", false, "print each metric's median and quartile spread over the run records given as arguments")
	flag.Parse()

	if *compare || *spread {
		var lines []string
		var err error
		switch {
		case *compare && flag.NArg() != 2:
			err = fmt.Errorf("-compare takes two record files")
		case *compare:
			lines, err = compareFiles(flag.Arg(0), flag.Arg(1))
		default:
			lines, err = spreadFiles(flag.Args())
		}
		if err != nil {
			fail(err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		return
	}
	wl, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("bad arguments: -workload %q -seconds %d -trace %d", *workload, *seconds, *trace))
	}
	if _, err := os.Stat(*bin); err != nil {
		fail(fmt.Errorf("kronbip binary: %w", err))
	}
	// An interrupted run stops its replicas before exiting; the replicas
	// also die with this process (Pdeathsig) if it is killed outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	out, rec, err := run(ctx, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *outDir)
	stop()
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "record: %s\n", b)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, *seed, *trace)
	if err := os.WriteFile(filepath.Join(*outDir, name), b, 0o644); err != nil {
		fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one stretch of measured ops.
type phase struct {
	ops        []opResult
	preps      []prepared
	replicaCPU time.Duration
	rss        []float64
}

func (ph phase) verified() (n int64) {
	for _, r := range ph.ops {
		n += r.edges
	}
	return n
}

func (ph phase) failed() (n int) {
	for _, r := range ph.ops {
		if r.err != nil {
			n++
		}
	}
	return n
}

func (ph phase) wall() (d time.Duration) {
	for _, r := range ph.ops {
		d += r.lat
	}
	return d
}

func (ph phase) clientCPU() (d time.Duration) {
	for _, r := range ph.ops {
		d += r.cpu
	}
	return d
}

func (ph phase) latMs() []float64 {
	xs := make([]float64, len(ph.ops))
	for i, r := range ph.ops {
		xs[i] = ms(r.lat)
	}
	return xs
}

func (ph phase) edgesPerSec() float64 { return ratio(float64(ph.verified()), ph.wall().Seconds()) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0, so a run with nothing verified still
// prints valid JSON (and reports correct=false).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// measure runs ops back to back (a closed loop) until d has passed.
// Each op's reference is prepared before its clock starts; the replica
// CPU is read across the whole phase (replicas idle between ops).
func (b *bench) measure(ctx context.Context, ns int, d time.Duration) (phase, error) {
	var ph phase
	cpu0, err := b.fl.cpu()
	if err != nil {
		return ph, err
	}
	sampler := sampleRSS(b.fl, rssEvery)
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		pr, err := b.prepare(ns, i)
		if err != nil {
			sampler.stop()
			return ph, err
		}
		r := b.runOp(ctx, i, pr, false)
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, r.err)
		}
		ph.ops = append(ph.ops, r)
		if len(ph.preps) < replays {
			ph.preps = append(ph.preps, pr)
		}
	}
	ph.rss = sampler.stop()
	if err := ctx.Err(); err != nil {
		return ph, err
	}
	cpu1, err := b.fl.cpu()
	ph.replicaCPU = cpu1 - cpu0
	return ph, err
}

// setup starts a fresh fleet and ends on verified warm-up ops.  The
// warm-up references are prepared before the clock starts.  The first
// distgen warm-up establishes the reference merged output.  Fresh-graph
// workloads first fill the replica's product cache, so the measured ops
// run against a full LRU, as on a long-running server, instead of one
// whose memory grows with every op the run manages to fit in.
func (b *bench) setup(ctx context.Context, bin string, k int) (time.Duration, error) {
	preps := make([]prepared, b.wl.warmups)
	for i := range preps {
		var err error
		if preps[i], err = b.prepare(nsWarm, k*b.wl.warmups+i); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < b.wl.replicas; i++ {
		r, err := startReplica(bin, b.client)
		if err != nil {
			return 0, err
		}
		b.fl = append(b.fl, r)
	}
	if !b.wl.distgen {
		if err := b.fillCache(ctx); err != nil {
			return 0, err
		}
	}
	for i, pr := range preps {
		r := b.runOp(ctx, -1, pr, b.wl.distgen && !b.hasMerged && i == 0)
		if r.err != nil {
			return 0, fmt.Errorf("warm-up op %d: %w", i, r.err)
		}
	}
	return time.Since(t0), nil
}

func newClient(b *bench, traced bool) *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     1, // one connection per replica
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	if traced {
		return &http.Client{Transport: &leaseTimer{b: b, next: tr}}
	}
	return &http.Client{Transport: &countingTransport{b: b, next: tr}}
}

// run performs one benchmark run and returns the output line and the
// full record.
func run(ctx context.Context, wl workload, seed int64, d time.Duration, traced bool, bin, outDir string) (result, *record, error) {
	b := &bench{wl: wl, seed: seed, rc: newReceiver()}
	b.client = newClient(b, false)
	rec := &record{Workload: wl.name, Seed: seed, Seconds: d.Seconds(), Traced: traced,
		Fingerprint: machine(bin), Metrics: map[string]metric{}}
	defer func() { _ = b.fl.stop() }()

	var setupS []float64
	for k := 0; k < setups; k++ {
		if k > 0 {
			if err := b.fl.stop(); err != nil {
				return result{}, nil, fmt.Errorf("stop replicas: %w", err)
			}
			b.fl = nil
		}
		s, err := b.setup(ctx, bin, k)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup %d: %w", k, err)
		}
		setupS = append(setupS, s.Seconds())
	}
	rec.SetupSamples = setupS
	selfErr := b.selfCheck(ctx)
	rec.SelfCheck = "ok"
	if selfErr != nil {
		rec.SelfCheck = selfErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench:", selfErr)
	}

	plain := d
	if traced {
		plain = d / 2
	}
	ph, err := b.measure(ctx, nsMeasured, plain)
	if err != nil {
		return result{}, nil, err
	}
	e2e := endToEnd(ph, setupS, rec)
	for k, v := range e2e {
		rec.Metrics[k] = v
	}
	out := result{Correct: selfErr == nil, Attempted: len(ph.ops), Failed: ph.failed(), Metrics: e2e}
	if traced {
		b.tr = newTracer()
		b.client.CloseIdleConnections()
		b.client = newClient(b, true)
		tph, err := b.measure(ctx, nsTraced, d-plain)
		if err != nil {
			return result{}, nil, err
		}
		out.Attempted += len(tph.ops)
		out.Failed += tph.failed()
		layers, err := b.perLayer(ctx, ph, tph, e2e)
		if err != nil {
			return result{}, nil, err
		}
		out.Metrics = layers
	}
	if err := b.fl.stop(); err != nil {
		return result{}, nil, fmt.Errorf("stop replicas: %w", err)
	}
	b.fl = nil
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	out.Correct = out.Correct && out.Failed == 0 && out.Attempted > 0 && len(b.problems) == 0
	rec.Correct, rec.Attempted, rec.Failed = out.Correct, out.Attempted, out.Failed
	rec.ErrorRate = ratio(float64(out.Failed), float64(out.Attempted))
	for k, v := range out.Metrics {
		rec.Metrics[k] = v // the traced run's record keeps both sets
	}
	printMetrics(wl.name, rec)
	if traced {
		spans := b.tr.snapshot()
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, seed))
		if err := writeTrace(path, rec, spans); err != nil {
			return result{}, nil, err
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(spans), path)
	}
	return out, rec, nil
}

// endToEnd computes the end-to-end metrics of an untraced phase and
// notes the op count and latency shape in rec.
func endToEnd(ph phase, setupS []float64, rec *record) map[string]metric {
	lat := ph.latMs()
	tailV, pct, beyond := tail(lat)
	rec.Ops = len(ph.ops)
	rec.TailPct, rec.TailBeyond = pct, beyond
	if q1, q2, q3, ok := quartiles(lat); ok {
		rec.OpQuartilesMs = []float64{q1, q2, q3}
	}
	verified := float64(ph.verified())
	return map[string]metric{
		"edges_per_s":     {ph.edgesPerSec(), "edges/s"},
		"op_p50_ms":       {median(lat), "ms"},
		"op_tail_ms":      {tailV, "ms"},
		"cpu_ns_per_edge": {ratio(float64(ph.replicaCPU+ph.clientCPU()), verified), "ns/edge"},
		"rss_p50_mb":      {median(ph.rss), "MiB"},
		"setup_s":         {median(setupS), "s"},
	}
}

// printMetrics writes the human-readable summary to standard error.
func printMetrics(wl string, rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "workload %s seed %d: %d ops attempted, %d failed, error_rate %.4g (ratio); op_tail_ms is p%.1f with %d ops beyond it\n",
		wl, rec.Seed, rec.Attempted, rec.Failed, rec.ErrorRate, rec.TailPct, rec.TailBeyond)
	for _, k := range names {
		m := rec.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
