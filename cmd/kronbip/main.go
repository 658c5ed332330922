// Command kronbip generates bipartite Kronecker product graphs with exact
// 4-cycle ground truth, per Steil et al. (IPDPSW 2020).
//
// Subcommands:
//
//	kronbip generate  -factor unicode -mode selfloop -edges-out c.tsv
//	    Stream the product's edge list to a file (or stdout) without ever
//	    materializing it, plus a ground-truth summary on stderr.
//
//	kronbip stats     -factor unicode
//	    Print factor and product statistics (Table I style).
//
//	kronbip truth     -factor unicode -vertex 12345
//	kronbip truth     -factor unicode -edge 12345,67890
//	    O(1) point queries: degree, 2-walks and 4-cycle counts at a product
//	    vertex or edge.
//
//	kronbip verify    -factor crown4 -samples 100
//	    Materialize the product and cross-check sampled ground truth against
//	    brute-force counting (exit 1 on mismatch).
//
//	kronbip serve     -addr 127.0.0.1:8080
//	    Run the long-lived generation & ground-truth HTTP service
//	    (internal/serve): job submission with admission control, sync
//	    /v1/truth and /v1/stats from factor closed forms, NDJSON/TSV edge
//	    streaming, /metrics.  SIGINT drains running jobs and exits 0.
//
//	kronbip dist-gen  -worker http://h1:8080 -worker http://h2:8080 -factor crown4
//	    Coordinate distributed generation: partition the spec into a 2D
//	    block grid, lease blocks to the serve replicas (POST /v1/leases),
//	    and merge the returned streams into one verified, ordered edge
//	    list (internal/distgen).  Failed or straggling leases are
//	    re-issued; the leases' Σ◊ trailers must sum to 4·□ (printed as
//	    four_cycles=); -audit runs the ground-truth auditor on the merge.
//
//	kronbip version
//	    Print the build identity (module version, go version, VCS revision)
//	    from debug.ReadBuildInfo — the same identity serve reports in its
//	    Server header and /healthz payload.
//
// Factors (-factor): unicode, crown<N>, biclique<NU>x<NW>, cycle<N>,
// path<N>, star<N>, hypercube<D>, sf<NU>x<NW>x<EDGES> (bipartite
// scale-free), product(<F1>,<F2>) (materialized two-factor product as a
// single factor).  -factor repeats: each extra occurrence chains one more
// Kronecker level onto the product,
//
//	kronbip generate -factor crown4 -factor path3 -factor path2 ...
//
// without ever materializing the intermediate levels.  -mode selects
// selfloop ((A+I)⊗A-style, default) or nonbip (K-odd ⊗ B; pairs the
// first bipartite factor with a 5-cycle A).
//
// Generation streams shards in parallel on the internal/exec engine:
// -shards defaults to GOMAXPROCS (stdout output forces one shard), and
// -timeout bounds the run.  SIGINT/SIGTERM cancel cleanly mid-stream —
// partial output is reported as such and the process exits 130.
//
// -audit cross-checks the streamed output against the paper's theorems
// during the run (internal/audit) and exits non-zero on any violation;
// -timeline-out / -journal-out record a per-shard event timeline
// (internal/obs/timeline) as Chrome trace_event JSON / logfmt, distinct
// from -trace, which captures the Go runtime trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"kronbip/internal/audit"
	"kronbip/internal/cli"
	"kronbip/internal/core"
	"kronbip/internal/count"
	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
	"kronbip/internal/spec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(cli.ExitUsage)
	}
	// A panic unwinding out of any subcommand dumps the flight recorder
	// before re-raising — the crash output then carries the event trail
	// that led up to it, not just the stack.
	defer cli.FlightDumpOnPanic()
	// Every subcommand runs under a signal-aware context: Ctrl-C or SIGTERM
	// cancels mid-generation and the engine unwinds with a partial-work
	// error instead of being killed with buffers in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGQUIT is repurposed from kill-with-stack-dump to a live
	// flight-recorder dump: the process reports what it was doing and
	// keeps running (long generations and serve stay up).
	stopQuit := cli.StartFlightDumpOnQuit()
	defer stopQuit()

	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(ctx, args)
	case "stats":
		err = cmdStats(ctx, args)
	case "truth":
		err = cmdTruth(ctx, args)
	case "verify":
		err = cmdVerify(ctx, args)
	case "serve":
		err = cmdServe(ctx, args)
	case "dist-gen":
		err = cmdDistGen(ctx, args)
	case "version", "-version", "--version":
		fmt.Printf("kronbip %s\n", cli.Build())
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "kronbip: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(cli.ExitUsage)
	}
	if code := cli.Fail("kronbip "+cmd, err); code != cli.ExitOK {
		os.Exit(code)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kronbip <generate|stats|truth|verify|serve|dist-gen|version> [flags]  (run a subcommand with -h for its flags)")
}

// factorChain collects repeated -factor flags in chain order.  The flag
// surface mirrors the serve query decoder's repeated ?factor= fields;
// both funnel into the same spec vocabulary.
type factorChain []string

func (f *factorChain) String() string { return strings.Join(*f, ",") }

func (f *factorChain) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// factorFlag registers the repeatable -factor flag.  The returned slice
// is empty until Parse; resolve defaults with orDefault after parsing.
func factorFlag(fs *flag.FlagSet) *factorChain {
	var f factorChain
	fs.Var(&f, "factor", "factor spec; repeat to chain additional Kronecker levels")
	return &f
}

func (f factorChain) orDefault(def string) []string {
	if len(f) == 0 {
		return []string{def}
	}
	return f
}

// buildProduct assembles the product named by a (-factor…, -mode, -seed)
// flag set through the shared spec vocabulary, so the CLI and the
// serve request decoder resolve specs identically.
func buildProduct(factors []string, mode string, seed int64) (*core.Product, error) {
	return spec.Spec{Factors: factors, Mode: mode, Seed: seed}.Build()
}

func cmdGenerate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	factor := factorFlag(fs)
	mode := fs.String("mode", "selfloop", "selfloop | nonbip")
	seed := fs.Int64("seed", 2020, "factor seed")
	out := fs.String("edges-out", "-", "edge list destination ('-' for stdout)")
	offset := fs.Int64("offset", 0, "skip the first N edges of the canonical order (closed-form seek, no prefix work)")
	limit := fs.Int64("limit", -1, "emit at most N edges from -offset (-1 = through the end)")
	shards := fs.Int("shards", 0, "shard files to write in parallel (<edges-out>.shardK); 0 = GOMAXPROCS, 1 = single file; needs -edges-out for N>1")
	timeout := fs.Duration("timeout", 0, "abort generation after this duration (0 = none)")
	auditOn := fs.Bool("audit", false, "cross-check the streamed output against theorem ground truth (degree sums, dual-route 4-cycles, sampled edge membership and Thm. 3/4 spot checks); exit non-zero on any violation")
	auditSample := fs.Int("audit-sample", 0, "with -audit, membership-check every Nth streamed edge (0 = default 1024, 1 = every edge)")
	auditDrop := fs.Int64("audit-inject-drop", 0, "testing hook: make the auditor believe N streamed edges were lost (forces a stream.count violation)")
	obsFlags := obs.RegisterFlags(fs)
	tlFlags := timeline.RegisterFlags(fs)
	verb := cli.RegisterVerbosity(fs)
	fs.Parse(args)

	p, err := buildProduct(factor.orDefault("unicode"), *mode, *seed)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Resolve the requested edge range.  A ranged run is single-sharded
	// (one ordered slice of the canonical stream) and unaudited (the
	// audit invariants are whole-stream properties).
	total := p.NumEdges()
	lo, hi := *offset, total
	if *limit >= 0 && *limit < hi-lo {
		hi = lo + *limit
	}
	ranged := lo != 0 || hi != total
	if ranged {
		if *auditOn || *auditDrop > 0 {
			return fmt.Errorf("-audit requires the full stream; drop -offset/-limit")
		}
		if *shards > 1 {
			return fmt.Errorf("-shards %d cannot combine with -offset/-limit (a range is one ordered slice)", *shards)
		}
		if lo < 0 || lo > total {
			return fmt.Errorf("-offset %d out of range [0,%d]", lo, total)
		}
	}

	// Resolve -shards: unset/<=0 means "use every core".  Stdout can only
	// take a single interleaving-free stream, so sharded output needs a
	// file prefix; explicitly asking for both is an error rather than a
	// silent fallback to single-sharded output.
	nshards := *shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	if *out == "-" {
		if *shards > 1 {
			return fmt.Errorf("-shards %d writes <prefix>.shardK files and cannot go to stdout; pass -edges-out <prefix> or -shards 1", *shards)
		}
		nshards = 1
	}

	stopObs, err := obsFlags.Start()
	if err != nil {
		return err
	}
	stopTL, err := tlFlags.Start(os.Stderr)
	if err != nil {
		stopObs()
		return err
	}
	// The auditor taps the edge stream (per-shard child sinks) and runs
	// the theorem cross-checks after generation; -audit-inject-drop is
	// the negative-path hook proving a corrupted stream exits non-zero.
	var auditor *audit.Auditor
	if *auditOn || *auditDrop > 0 {
		auditor = audit.New(p, audit.Options{SampleEvery: *auditSample})
	}
	// The progress reporter samples the stream's process-wide counters
	// (baselined at Start, so the numbers are per-run) at the requested
	// interval; it stops — and gets out of the way of the summary line —
	// before the metrics snapshot is written.
	stopProgress := (&obs.Progress{
		Interval:    obsFlags.Progress,
		Edges:       obs.Default.Counter(core.MetricStreamEdges).Value,
		TotalEdges:  p.NumEdges(),
		ShardsDone:  obs.Default.Counter(core.MetricStreamShardsDone).Value,
		TotalShards: int64(nshards),
	}).Start()

	genErr := func() error {
		if ranged {
			return generateRange(ctx, p, *out, lo, hi, verb)
		}
		if nshards == 1 {
			return generateSingle(ctx, p, *out, auditor, verb)
		}
		return generateSharded(ctx, p, *out, nshards, auditor, verb)
	}()
	stopProgress()
	// Audit once the stream is complete but before the exporters stop,
	// so violations reach the timeline and the -metrics-out snapshot.
	if auditor != nil && genErr == nil {
		if *auditDrop > 0 {
			auditor.Stream().InjectDrop(*auditDrop)
		}
		report := auditor.Finalize()
		if err := report.WriteSummary(os.Stderr); err != nil {
			genErr = err
		} else {
			genErr = report.Err()
		}
	}
	if err := stopTL(); err != nil && genErr == nil {
		genErr = err
	}
	if err := stopObs(); err != nil && genErr == nil {
		genErr = err
	}
	return genErr
}

// generateSingle streams the whole edge set to one destination ('-' for
// stdout) through the engine's TSV sink, cancellably.  It runs as a
// one-shard parallel stream so the single-file path shares the sharded
// path's instrumentation (edge counters, span timing, shard completion).
// Every sink in the chain (TSV, counting, audit, and the MultiSink
// joining them) speaks exec.BatchSink, so the stream takes the batched
// hot loop: edges reach the encoders as whole pooled buffers.
func generateSingle(ctx context.Context, p *core.Product, out string, auditor *audit.Auditor, verb *cli.Verbosity) error {
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tsv := exec.NewTSVSink(w)
	var cnt exec.CountingSink
	sink := exec.MultiSink{tsv, &cnt}
	if auditor != nil {
		sink = append(sink, auditor.Stream().ForShard())
	}
	err := p.StreamEdgesParallelContext(ctx, 1, func(int) exec.Sink { return sink })
	if err != nil {
		return err
	}
	verb.Summaryf("%v\nstreamed %d edges; global 4-cycles (ground truth): %d\n", p, cnt.Count(), p.GlobalFourCycles())
	return nil
}

// generateRange streams the [lo, hi) slice of the canonical edge order
// through the closed-form seek (core.EachEdgeRangeBatchContext): no
// prefix is generated, so resuming a multi-hour run at edge k costs O(K)
// to find k, not O(k) to replay it.
func generateRange(ctx context.Context, p *core.Product, out string, lo, hi int64, verb *cli.Verbosity) error {
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tsv := exec.NewTSVSink(w)
	var cnt exec.CountingSink
	var sinkErr error
	err := p.EachEdgeRangeBatchContext(ctx, lo, hi, func(batch []exec.Edge) bool {
		if e := tsv.EdgeBatch(batch); e != nil {
			sinkErr = e
			return false
		}
		_ = cnt.EdgeBatch(batch)
		return true
	})
	if err == nil {
		err = sinkErr
	}
	if ferr := tsv.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	verb.Summaryf("%v\nstreamed edges [%d,%d) of %d (%d edges)\n", p, lo, hi, p.NumEdges(), cnt.Count())
	return nil
}

// generateSharded writes the edge set as N shard files concurrently on the
// engine's bounded worker pool — the distributed-generation shape of the
// paper's future-work discussion, in-process.  Cancellation (Ctrl-C,
// -timeout) aborts all shards promptly, leaving partial shard files.
func generateSharded(ctx context.Context, p *core.Product, prefix string, shards int, auditor *audit.Auditor, verb *cli.Verbosity) error {
	if prefix == "-" {
		return fmt.Errorf("sharded output needs -edges-out to name a file prefix")
	}
	files := make([]*os.File, shards)
	sinks := make([]exec.Sink, shards)
	for s := 0; s < shards; s++ {
		f, err := os.Create(fmt.Sprintf("%s.shard%d", prefix, s))
		if err != nil {
			return err
		}
		defer f.Close()
		files[s] = f
		if auditor != nil {
			sinks[s] = exec.MultiSink{exec.NewTSVSink(f), auditor.Stream().ForShard()}
		} else {
			sinks[s] = exec.NewTSVSink(f)
		}
	}
	err := p.StreamEdgesParallelContext(ctx, shards, func(s int) exec.Sink {
		return sinks[s]
	})
	if err != nil {
		return err
	}
	verb.Summaryf("%v\nwrote %d shards (%d edges total); global 4-cycles (ground truth): %d\n",
		p, shards, p.NumEdges(), p.GlobalFourCycles())
	return nil
}

func cmdStats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	factor := factorFlag(fs)
	mode := fs.String("mode", "selfloop", "selfloop | nonbip")
	seed := fs.Int64("seed", 2020, "factor seed")
	spectral := fs.Bool("spectral", false, "also report the exact spectral radius ρ(C)")
	diameter := fs.Bool("diameter", false, "also report the exact diameter (needs connected factors)")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none)")
	fs.Parse(args)

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	p, err := buildProduct(factor.orDefault("unicode"), *mode, *seed)
	if err != nil {
		return err
	}
	fa := p.FactorA()
	nu, nw := p.PartSizes()
	fmt.Printf("mode:      %v (arity %d)\n", p.Mode(), p.Arity())
	fmt.Printf("factor A:  n=%d m=%d □=%d triangles=%d\n", fa.N(), fa.G.NumEdges(), fa.Global4, fa.Triangles)
	for t, fb := range p.Factors()[1:] {
		label := "B: "
		if p.Arity() > 2 {
			label = fmt.Sprintf("B%d:", t+1)
		}
		fmt.Printf("factor %s n=%d m=%d □=%d\n", label, fb.N(), fb.G.NumEdges(), fb.Global4)
	}
	fmt.Printf("product:   n=%d (|U|=%d |W|=%d) m=%d\n", p.N(), nu, nw, p.NumEdges())
	fmt.Printf("product □: %d (closed form, no materialization)\n", p.GlobalFourCycles())
	fmt.Printf("connected by theorem: %v\n", p.ConnectedByTheorem())
	if *spectral {
		rho, err := p.SpectralRadiusContext(ctx, 1e-10, 20000)
		if err != nil {
			return err
		}
		fmt.Printf("spectral radius ρ(C): %.8f (= ρ(M)·ρ(B), factor power iteration)\n", rho)
	}
	if *diameter {
		d, err := p.DiameterContext(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("diameter: %d (exact, from factor BFS tables)\n", d)
	}
	return nil
}

func cmdTruth(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("truth", flag.ExitOnError)
	factor := factorFlag(fs)
	mode := fs.String("mode", "selfloop", "selfloop | nonbip")
	seed := fs.Int64("seed", 2020, "factor seed")
	vertex := fs.Int("vertex", -1, "product vertex to query")
	edge := fs.String("edge", "", "product edge to query, as 'v,w'")
	hops := fs.String("hops", "", "product vertex pair to query the exact distance of, as 'v,w'")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none)")
	fs.Parse(args)

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	p, err := buildProduct(factor.orDefault("unicode"), *mode, *seed)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if *vertex >= 0 {
		if *vertex >= p.N() {
			return fmt.Errorf("vertex %d out of range [0,%d)", *vertex, p.N())
		}
		digits := p.DigitsOf(*vertex)
		fmt.Printf("vertex %d = digits%v: degree=%d two-walks=%d 4-cycles=%d side=%v\n",
			*vertex, digits, p.DegreeAt(*vertex), p.TwoWalksAt(*vertex), p.VertexFourCyclesAt(*vertex), p.SideOf(*vertex))
	}
	if *edge != "" {
		parts := strings.Split(*edge, ",")
		if len(parts) != 2 {
			return fmt.Errorf("bad -edge %q (want 'v,w')", *edge)
		}
		v, err1 := strconv.Atoi(parts[0])
		w, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -edge %q", *edge)
		}
		sq, err := p.EdgeFourCyclesAt(v, w)
		if err != nil {
			return err
		}
		gamma, err := p.EdgeClusteringAt(v, w)
		if err != nil {
			return err
		}
		fmt.Printf("edge (%d,%d): 4-cycles=%d clustering Γ=%.6f\n", v, w, sq, gamma)
	}
	if *hops != "" {
		parts := strings.Split(*hops, ",")
		if len(parts) != 2 {
			return fmt.Errorf("bad -hops %q (want 'v,w')", *hops)
		}
		v, err1 := strconv.Atoi(parts[0])
		w, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || v < 0 || w < 0 || v >= p.N() || w >= p.N() {
			return fmt.Errorf("bad -hops %q", *hops)
		}
		d, ok, err := p.HopsAtContext(ctx, v, w)
		if err != nil {
			return err
		}
		if ok {
			fmt.Printf("hops(%d,%d) = %d\n", v, w, d)
		} else {
			fmt.Printf("hops(%d,%d) = unreachable (different components)\n", v, w)
		}
	}
	if *vertex < 0 && *edge == "" && *hops == "" {
		return fmt.Errorf("nothing to query: pass -vertex, -edge and/or -hops")
	}
	return nil
}

func cmdVerify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	factor := factorFlag(fs)
	mode := fs.String("mode", "selfloop", "selfloop | nonbip")
	seed := fs.Int64("seed", 2020, "factor seed")
	samples := fs.Int("samples", 100, "vertices and edges to sample (0 = exhaustive)")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.Parse(args)

	p, err := buildProduct(factor.orDefault("crown4"), *mode, *seed)
	if err != nil {
		return err
	}
	g, err := p.MaterializeContext(ctx, *workers)
	if err != nil {
		return err
	}
	bad := 0
	if *samples == 0 {
		brute, err := count.VertexButterfliesParallelContext(ctx, g, *workers)
		if err != nil {
			return err
		}
		truth := p.VertexFourCycles()
		for v := range brute {
			if brute[v] != truth[v] {
				bad++
			}
		}
		fmt.Printf("exhaustive: %d/%d vertices match\n", len(brute)-bad, len(brute))
	} else {
		step := p.N() / *samples
		if step == 0 {
			step = 1
		}
		checked := 0
		for v := 0; v < p.N(); v += step {
			if count.VertexButterfliesAt(g, v) != p.VertexFourCyclesAt(v) {
				bad++
			}
			checked++
		}
		fmt.Printf("sampled: %d/%d vertices match\n", checked-bad, checked)
	}
	if bad > 0 {
		return fmt.Errorf("%d ground-truth mismatches", bad)
	}
	globalDirect, err := count.GlobalButterflies(g)
	if err != nil {
		return err
	}
	if globalDirect != p.GlobalFourCycles() {
		return fmt.Errorf("global mismatch: direct %d, formula %d", globalDirect, p.GlobalFourCycles())
	}
	fmt.Printf("global 4-cycles: %d (formula == direct)\n", globalDirect)
	return nil
}
