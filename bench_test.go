// Package kronbip_test benchmarks every experiment of the paper's
// evaluation (DESIGN.md §4) plus ablations of the kernels that make the
// ground-truth pipeline fast.  Run with:
//
//	go test -bench=. -benchmem
//
// Naming: Benchmark<ExperimentID>_* matches the per-experiment index in
// DESIGN.md; the *_Ablation_* benches quantify individual design choices
// (parallel vs serial kernels, formula vs brute force).
package kronbip_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"kronbip/internal/approx"
	"kronbip/internal/bter"
	"kronbip/internal/core"
	"kronbip/internal/count"
	"kronbip/internal/exec"
	"kronbip/internal/experiments"
	"kronbip/internal/gen"
	"kronbip/internal/grb"
	"kronbip/internal/obs"
	"kronbip/internal/rmat"
	"kronbip/internal/serve"
	"kronbip/internal/wing"
)

// unicodeProduct builds the Table I product once per benchmark.
func unicodeProduct(b *testing.B) *core.Product {
	b.Helper()
	a := gen.UnicodeLike(2020)
	p, err := core.NewRelaxedWithParts(a.Graph, a, core.ModeSelfLoopFactor)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// smallUnicodeProduct is a quarter-scale variant for benchmarks that must
// materialize and brute-force count inside the timed loop.
func smallUnicodeProduct(b *testing.B) *core.Product {
	b.Helper()
	a := gen.BipartiteScaleFree(64, 150, 320, 2020)
	p, err := core.NewRelaxedWithParts(a.Graph, a, core.ModeSelfLoopFactor)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- EXP-T1: Table I ---

// BenchmarkTableI_GroundTruth times the paper's headline operation: factor
// statistics plus the closed-form global 4-cycle count of the ~4.2M-edge
// product, with no materialization.
func BenchmarkTableI_GroundTruth(b *testing.B) {
	a := gen.UnicodeLike(2020)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := core.NewRelaxedWithParts(a.Graph, a, core.ModeSelfLoopFactor)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.GlobalFourCycles()
	}
}

// BenchmarkTableI_DirectCount is the competing path at reduced scale:
// materialize the product and count butterflies by wedges.
func BenchmarkTableI_DirectCount(b *testing.B) {
	p := smallUnicodeProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := p.Materialize(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := count.GlobalButterflies(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_Materialize isolates product materialization cost.
func BenchmarkTableI_Materialize(b *testing.B) {
	p := unicodeProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Materialize(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_EdgeStream times streaming all product edges with their
// per-edge 4-cycle ground truth (the "local quantities in linear time"
// claim) without materializing.
func BenchmarkTableI_EdgeStream(b *testing.B) {
	p := unicodeProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink int64
		p.EachEdgeFourCycle(func(_, _ int, sq int64) bool {
			sink += sq
			return true
		})
		if sink == 0 {
			b.Fatal("no edges streamed")
		}
	}
}

// --- EXP-F5: Fig. 5 ---

// BenchmarkFig5_VertexVector times the full per-vertex ground-truth vector
// of the 753k-vertex product (the Fig. 5 scatter's y-axis).
func BenchmarkFig5_VertexVector(b *testing.B) {
	p := unicodeProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := p.VertexFourCycles(); len(v) != p.N() {
			b.Fatal("short vector")
		}
	}
}

// BenchmarkFig5_Full regenerates the complete figure data (both scatters
// plus binning).
func BenchmarkFig5_Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(2020); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-F1: Fig. 1 ---

// BenchmarkFig1 regenerates the three small-product panels with
// connectivity/bipartiteness checks and 4-cycle inventories.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1()
		if err != nil || !res.Valid() {
			b.Fatal("fig1 failed")
		}
	}
}

// --- EXP-THM3/4/5 ---

// BenchmarkThm3_VertexGroundTruth times mode-(i) per-vertex formulas.
func BenchmarkThm3_VertexGroundTruth(b *testing.B) {
	p, err := core.New(gen.Petersen(), gen.Crown(6).Graph, core.ModeNonBipartiteFactor)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.VertexFourCycles()
	}
}

// BenchmarkThm4_VertexGroundTruth times mode-(ii) per-vertex formulas.
func BenchmarkThm4_VertexGroundTruth(b *testing.B) {
	p, err := core.New(gen.Hypercube(4), gen.Crown(6).Graph, core.ModeSelfLoopFactor)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.VertexFourCycles()
	}
}

// BenchmarkThm5_EdgePointQueries times O(1) per-edge ground-truth queries.
func BenchmarkThm5_EdgePointQueries(b *testing.B) {
	p := unicodeProduct(b)
	// Collect a query workload once.
	type q struct{ v, w int }
	var queries []q
	p.EachEdge(func(v, w int) bool {
		queries = append(queries, q{v, w})
		return len(queries) < 4096
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qq := queries[i%len(queries)]
		if _, err := p.EdgeFourCyclesAt(qq.v, qq.w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThm345_FullValidationSweep runs the whole formula-vs-brute-force
// sweep (10 factor pairs, both modes).
func BenchmarkThm345_FullValidationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFormulaValidation()
		if err != nil || !res.Valid() {
			b.Fatal("validation sweep failed")
		}
	}
}

// --- EXP-THM6 ---

// BenchmarkThm6_ClusteringLaw checks the scaling law on every edge of
// K5 ⊗ crown4.
func BenchmarkThm6_ClusteringLaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunClusteringLaw(1)
		if err != nil || !res.BoundOK {
			b.Fatal("thm6 failed")
		}
	}
}

// --- EXP-THM7 ---

// BenchmarkThm7_CommunityFormulas times the closed-form community edge
// counts against exact counting on the materialized product.
func BenchmarkThm7_CommunityFormulas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCommunity(3)
		if err != nil || !res.FormulasExact {
			b.Fatal("thm7 failed")
		}
	}
}

// --- EXP-REM1 ---

// BenchmarkRemark1_WingDecomposition times the 4-cycle-free-factor sweep
// including full wing decompositions of each product.
func BenchmarkRemark1_WingDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRemark1()
		if err != nil || !res.Valid() {
			b.Fatal("rem1 failed")
		}
	}
}

// --- EXP-SCALE ---

// BenchmarkScale_GroundTruthVsDirect runs a 3-step scaling comparison.
func BenchmarkScale_GroundTruthVsDirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScaling(3, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-BASE: §I baselines ---

// BenchmarkRMAT_Generate times the bipartite R-MAT baseline.
func BenchmarkRMAT_Generate(b *testing.B) {
	p := rmat.DefaultParams(10, 11, 8000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rmat.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTER_Generate times the bipartite BTER baseline.
func BenchmarkBTER_Generate(b *testing.B) {
	p := bter.Params{
		DegreesU:      bter.HeavyTailDegrees(1024, 60, 2, 1),
		DegreesW:      bter.HeavyTailDegrees(2048, 40, 2, 2),
		BlockFraction: 0.6,
		BlockDensity:  0.8,
		Seed:          1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bter.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-ECC: distance ground truth ---

// BenchmarkDistances_GroundTruth times exact diameter + all eccentricities
// from factor BFS tables on a mid-size product.
func BenchmarkDistances_GroundTruth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := core.New(gen.Petersen(), gen.Grid(3, 5), core.ModeNonBipartiteFactor)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Diameter(); err != nil {
			b.Fatal(err)
		}
		for v := 0; v < p.N(); v++ {
			if _, err := p.EccentricityAt(v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDistances_BFS is the competing all-pairs BFS on the
// materialized product.
func BenchmarkDistances_BFS(b *testing.B) {
	p, err := core.New(gen.Petersen(), gen.Grid(3, 5), core.ModeNonBipartiteFactor)
	if err != nil {
		b.Fatal(err)
	}
	g, err := p.Materialize(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Diameter()
	}
}

// --- EXP-DEG: degree-distribution ground truth ---

// BenchmarkDegrees_ClosedFormHistogram times the exact product degree
// histogram at full Table I scale (never touches the product).
func BenchmarkDegrees_ClosedFormHistogram(b *testing.B) {
	p := unicodeProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := p.DegreeHistogram(); len(h) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// --- EXP-APPROX: estimator grading ---

// BenchmarkApprox_WedgeSample times the wedge estimator at 10k samples on
// a mid-scale product.
func BenchmarkApprox_WedgeSample(b *testing.B) {
	p := smallUnicodeProduct(b)
	g, err := p.Materialize(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.WedgeSample(g, 10000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: the kernels behind the pipeline ---

// BenchmarkAblation_KronSerial and ..._KronParallel quantify the parallel
// Kronecker materialization kernel.
func BenchmarkAblation_KronSerial(b *testing.B)   { benchKron(b, 1) }
func BenchmarkAblation_KronParallel(b *testing.B) { benchKron(b, 0) }

func benchKron(b *testing.B, workers int) {
	a := gen.UnicodeLike(2020)
	m := a.WithFullSelfLoops().Adjacency()
	bm := a.Adjacency()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grb.KronParallel(m, bm, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_WedgeCountSerial vs ..._Parallel: the validation-side
// butterfly counter.
func BenchmarkAblation_WedgeCountSerial(b *testing.B)   { benchWedge(b, 1) }
func BenchmarkAblation_WedgeCountParallel(b *testing.B) { benchWedge(b, 0) }

func benchWedge(b *testing.B, workers int) {
	p := smallUnicodeProduct(b)
	g, err := p.Materialize(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := count.VertexButterfliesParallel(g, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_MxMSerial vs ..._Parallel: grb's SpGEMM squaring a
// factor adjacency, the A² that Def. 8 and Def. 9 evaluate verbatim in
// internal/count's algebraic oracles (core.NewFactor counts wedges
// instead).
func BenchmarkAblation_MxMSerial(b *testing.B)   { benchMxM(b, 1) }
func BenchmarkAblation_MxMParallel(b *testing.B) { benchMxM(b, 0) }

func benchMxM(b *testing.B, workers int) {
	a := gen.UnicodeLike(2020).Adjacency()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grb.MxMParallel(a, a, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_GlobalFormula times the O(n_A+n_B) global count; its
// O(|E_C|) edge-sum counterpart (both exact) is BenchmarkStream_FourCycleSum,
// and its O(prefix pairs) one BenchmarkStream_FourCyclePriced.
func BenchmarkAblation_GlobalFormula(b *testing.B) {
	p := unicodeProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.GlobalFourCycles()
	}
}

// BenchmarkAblation_FactorStats isolates the one-time factor preprocessing
// (degrees, two-walks, per-vertex and per-edge 4-cycles, triangles: one
// degree-ordered wedge pass) on the Table I factor.
func BenchmarkAblation_FactorStats(b *testing.B) {
	a := gen.UnicodeLike(2020)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewFactor(a.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_WingPeeling times butterfly peeling on a dense-ish
// bipartite graph.
func BenchmarkAblation_WingPeeling(b *testing.B) {
	g := gen.Crown(12).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wing.Decomposition(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_BFSCounter times the paper's O(|V||E|) reference
// algorithm for comparison with the wedge counter.
func BenchmarkAblation_BFSCounter(b *testing.B) {
	p := smallUnicodeProduct(b)
	g, err := p.Materialize(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := count.GlobalButterfliesBFS(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Execution engine: streaming throughput (PR 1 tentpole) ---
//
// Before/after benches for the internal/exec refactor: the sharded pooled
// streaming path must be no slower than the serial seed path per edge, and
// the cancellable context plumbing must not tax the hot loop.

// BenchmarkStream_EachEdgeSerial is the seed-equivalent baseline: one
// goroutine walking the whole edge set.
func BenchmarkStream_EachEdgeSerial(b *testing.B) {
	b.ReportAllocs()
	p := unicodeProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		p.EachEdge(func(v, w int) bool { n++; return true })
		if n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// seedEachEdgeShard reproduces the seed's EachEdgeShard loop exactly:
// `shard*rows/nshards` ranges and per-edge IndexOf arithmetic, with the
// yield called indirectly.  noinline keeps the machine-code structure of
// the seed binary, where EachEdgeShard was a non-inlinable method and
// nothing could be hoisted across the yield calls.
//
//go:noinline
func seedEachEdgeShard(p *core.Product, shard, nshards int, yield func(v, w int) bool) {
	ea := p.FactorA().G.Edges()
	eb := p.FactorB().G.Edges()
	rows := len(ea)
	if p.Mode() == core.ModeSelfLoopFactor {
		rows += p.FactorA().N()
	}
	lo, hi := shard*rows/nshards, (shard+1)*rows/nshards
	for r := lo; r < hi; r++ {
		if r < len(ea) {
			ae := ea[r]
			for _, be := range eb {
				if !yield(p.IndexOf(ae.U, be.U), p.IndexOf(ae.V, be.V)) {
					return
				}
				if !yield(p.IndexOf(ae.U, be.V), p.IndexOf(ae.V, be.U)) {
					return
				}
			}
			continue
		}
		i := r - len(ea)
		for _, be := range eb {
			if !yield(p.IndexOf(i, be.U), p.IndexOf(i, be.V)) {
				return
			}
		}
	}
}

// seedStreamEdgesParallel is a faithful reconstruction of the seed's
// pre-engine StreamEdgesParallel — hand-rolled WaitGroup pool, one
// goroutine per shard, and the seed's error-capturing yield adapter over
// seedEachEdgeShard.  Kept only as the "before" bound for the engine
// benches below.
func seedStreamEdgesParallel(p *core.Product, nshards int, sinkFor func(shard int) func(v, w int) error) error {
	errs := make([]error, nshards)
	var wg sync.WaitGroup
	for s := 0; s < nshards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sink := sinkFor(s)
			var sinkErr error
			seedEachEdgeShard(p, s, nshards, func(v, w int) bool {
				if err := sink(v, w); err != nil {
					sinkErr = err
					return false
				}
				return true
			})
			errs[s] = sinkErr
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkStream_SeedHandRolled runs the reconstructed seed
// implementation with plain per-shard counter sinks.
func BenchmarkStream_SeedHandRolled(b *testing.B) {
	b.ReportAllocs()
	p := unicodeProduct(b)
	nshards := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make([]int64, nshards)
		err := seedStreamEdgesParallel(p, nshards, func(s int) func(v, w int) error {
			return func(v, w int) error { counts[s]++; return nil }
		})
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for _, c := range counts {
			n += c
		}
		if n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// batchCounter is a per-shard exec.Sink counting edges without
// synchronization, one add per batch.
type batchCounter struct{ n int64 }

func (c *batchCounter) EdgeBatch(batch []exec.Edge) error {
	c.n += int64(len(batch))
	return nil
}

// BenchmarkStream_ShardedBatch streams all shards concurrently on the
// exec engine into per-shard batch counters (one dispatch per
// exec.BatchLen edges).  The acceptance bar is beating
// BenchmarkStream_EachEdgeSerial.  At least 2 shards even on one core:
// the win under measure is batch dispatch amortization, which does not
// need OS parallelism to show.
func BenchmarkStream_ShardedBatch(b *testing.B) {
	b.ReportAllocs()
	p := unicodeProduct(b)
	ctx := context.Background()
	nshards := max(2, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counters := make([]batchCounter, nshards)
		err := p.StreamEdgesParallelContext(ctx, nshards, func(s int) exec.Sink {
			return &counters[s]
		})
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for s := range counters {
			n += counters[s].n
		}
		if n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// BenchmarkStream_ShardedInstrumented is the obs-enabled variant of
// BenchmarkStream_ShardedBatch: each shard resolves its labeled counter
// once before its walk, so enabling obs must cost atomics per batch,
// not registry lookups per batch.
func BenchmarkStream_ShardedInstrumented(b *testing.B) {
	b.ReportAllocs()
	p := unicodeProduct(b)
	ctx := context.Background()
	nshards := max(2, runtime.GOMAXPROCS(0))
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counters := make([]batchCounter, nshards)
		err := p.StreamEdgesParallelContext(ctx, nshards, func(s int) exec.Sink {
			return &counters[s]
		})
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for s := range counters {
			n += counters[s].n
		}
		if n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// --- Chained products: streaming a k = 2 chain (3 factors) ---
//
// A chain walk adds an odometer over the inner levels to the two-factor
// row loop; these benches hold it to the same bar — the sharded batched
// walk must not regress against the serial one, neither may sit far off
// the two-factor per-edge cost, and range spans and block sweeps must
// cost what the full stream costs.

// chainProduct builds a 3-factor chain at roughly Table I edge scale:
// ((sf48x96+I)⊗sf48x96 + I) ⊗ crown4, 4,949,424 edges — the chain the
// perfbench chain-bin workload streams.
func chainProduct(b *testing.B) *core.Product {
	b.Helper()
	a := gen.ConnectedBipartiteScaleFree(48, 96, 240, 2020)
	p, err := core.NewChainWithParts(a.Graph, core.ModeSelfLoopFactor, a, gen.Crown(4))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkStream_Chain_Serial walks the whole chain edge set on one
// goroutine through the per-edge EachEdge vocabulary — the chain twin of
// BenchmarkStream_EachEdgeSerial.
func BenchmarkStream_Chain_Serial(b *testing.B) {
	b.ReportAllocs()
	p := chainProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		p.EachEdge(func(v, w int) bool { n++; return true })
		if n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// BenchmarkStream_Chain_ShardedBatch is the chain analogue of
// BenchmarkStream_ShardedBatch: all shards concurrently, batch-capable
// per-shard counters, closed-form shard ranges over the term expansion.
func BenchmarkStream_Chain_ShardedBatch(b *testing.B) {
	b.ReportAllocs()
	p := chainProduct(b)
	ctx := context.Background()
	nshards := max(2, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counters := make([]batchCounter, nshards)
		err := p.StreamEdgesParallelContext(ctx, nshards, func(s int) exec.Sink {
			return &counters[s]
		})
		if err != nil {
			b.Fatal(err)
		}
		var n int64
		for s := range counters {
			n += counters[s].n
		}
		if n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// chainSpanEdges is 64 wire frames, the span size of the parallel bin
// encoder serve used to run: every span is one range walk.  Serve's
// streams are serial now; the size stays so the benchmark's records
// stay comparable.
const chainSpanEdges = 64 * serve.WireFrameEdges

// BenchmarkStream_Chain_Range walks the chain as consecutive
// chainSpanEdges ranges, each the walk of one ranged stream or resumed
// lease: each range pays its own seek, a mid-row start and the per-walk
// factor setup.
func BenchmarkStream_Chain_Range(b *testing.B) {
	b.ReportAllocs()
	p := chainProduct(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c batchCounter
		for lo := int64(0); lo < p.NumEdges(); lo += chainSpanEdges {
			hi := min(lo+chainSpanEdges, p.NumEdges())
			if err := p.EachEdgeRangeBatchContext(ctx, lo, hi, func(batch []exec.Edge) bool {
				return c.EdgeBatch(batch) == nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		if c.n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", c.n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// BenchmarkStream_FourCycleSum sums the per-edge 4-cycle counts of the
// Table I product (GlobalFourCyclesViaEdges): the ◊ walk, which prices
// every edge by Thm. 5 as it streams — the oracle of the priced walk.
func BenchmarkStream_FourCycleSum(b *testing.B) {
	b.ReportAllocs()
	p := unicodeProduct(b)
	want := p.GlobalFourCycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.GlobalFourCyclesViaEdges(); got != want {
			b.Fatalf("edge route %d, closed form %d", got, want)
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// BenchmarkStream_FourCyclePriced prices the same sum without walking
// the edges: PriceBlockRangeContext, sum-only, over every block of a
// grid, each block's Σ◊ one closed form per prefix pair.  The 1×1 grid
// is the audit's theorem.four_dual, 2×3 and 3×3 are dist-gen lease
// plans; the blocks must add up to 4·□.  Table I's stripes hold
// hundreds of edges, chain-bin's spec's (sf48x96x240 ⊗ crown4) four,
// so there the prefix pairs cost about what a plain walk of their
// edges does (BenchmarkStream_Block2x3, BenchmarkStream_Chain_Block2x3).
func BenchmarkStream_FourCyclePriced(b *testing.B) {
	for _, c := range []struct {
		name       string
		p          func(*testing.B) *core.Product
		rows, cols int
	}{
		{"table1_1x1", unicodeProduct, 1, 1},
		{"table1_2x3", unicodeProduct, 2, 3},
		{"chain-bin_1x1", chainProduct, 1, 1},
		{"chain-bin_3x3", chainProduct, 3, 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			p := c.p(b)
			want := 4 * p.GlobalFourCycles()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sum int64
				for r := 0; r < c.rows; r++ {
					for col := 0; col < c.cols; col++ {
						n, err := p.BlockEdgeCount(r, c.rows, col, c.cols)
						if err != nil {
							b.Fatal(err)
						}
						s, err := p.PriceBlockRangeContext(ctx, r, c.rows, col, c.cols, 0, n)
						if err != nil {
							b.Fatal(err)
						}
						sum += s
					}
				}
				if sum != want {
					b.Fatalf("priced Σ◊ %d, 4·□ %d", sum, want)
				}
			}
			b.ReportMetric(float64(p.NumEdges()), "edges/op")
		})
	}
}

// benchBlockSweep walks every block of a rows×cols grid in turn through
// the batched block walker — one dist-gen lease per block.
func benchBlockSweep(b *testing.B, p *core.Product, rows, cols int) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c batchCounter
		for r := 0; r < rows; r++ {
			for col := 0; col < cols; col++ {
				if err := p.EachEdgeBlockBatchContext(ctx, r, rows, col, cols, func(batch []exec.Edge) bool {
					return c.EdgeBatch(batch) == nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if c.n != p.NumEdges() {
			b.Fatalf("streamed %d edges, want %d", c.n, p.NumEdges())
		}
	}
	b.ReportMetric(float64(p.NumEdges()), "edges/op")
}

// BenchmarkStream_Block2x3 sweeps the Table I product as a 2×3 block
// grid, the lease shape of the perfbench distgen-audit workload.
func BenchmarkStream_Block2x3(b *testing.B) {
	b.ReportAllocs()
	benchBlockSweep(b, unicodeProduct(b), 2, 3)
}

// BenchmarkStream_Chain_Block2x3 is the same 2×3 sweep over the chain,
// where each column stripe slices crown4's 12 edges.
func BenchmarkStream_Chain_Block2x3(b *testing.B) {
	b.ReportAllocs()
	benchBlockSweep(b, chainProduct(b), 2, 3)
}
