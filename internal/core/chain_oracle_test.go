package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"kronbip/internal/count"
	"kronbip/internal/exec"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
)

// Satellite: the non-materializing chain vs the materializing oracle.
// Materialize (the one code path that builds intermediate levels) is kept
// exactly for this purpose: every closed-form answer the chained Product
// gives must match brute-force counting on the explicitly built graph.

type chainCase struct {
	name   string
	mode   Mode
	a      *graph.Graph
	bs     []*graph.Graph
	strict bool
}

// chainOracleCases spans arities 2..5 (k = 1..4 right factors), both modes,
// strict and relaxed, structured and pseudo-random scale-free factors.
func chainOracleCases() []chainCase {
	sf := func(nu, nw, m int, seed int64) *graph.Graph {
		return gen.ConnectedBipartiteScaleFree(nu, nw, m, seed).Graph
	}
	return []chainCase{
		{"k1_mode2", ModeSelfLoopFactor, gen.Path(3), []*graph.Graph{sf(3, 4, 8, 1)}, true},
		{"k1_mode1", ModeNonBipartiteFactor, gen.Lollipop(3, 2), []*graph.Graph{gen.Crown(3).Graph}, true},
		{"k2_mode2", ModeSelfLoopFactor, gen.Star(3), []*graph.Graph{sf(2, 3, 5, 2), gen.Path(3)}, true},
		{"k2_mode1", ModeNonBipartiteFactor, gen.Petersen(), []*graph.Graph{gen.Path(2), sf(2, 2, 3, 3)}, true},
		{"k3_mode2", ModeSelfLoopFactor, gen.Path(2), []*graph.Graph{gen.CompleteBipartite(2, 2).Graph, gen.Path(3), sf(2, 2, 3, 4)}, true},
		{"k3_mode1", ModeNonBipartiteFactor, gen.Complete(3), []*graph.Graph{gen.Path(2), gen.Star(2), gen.Path(3)}, true},
		{"k4_mode2", ModeSelfLoopFactor, gen.Path(3), []*graph.Graph{gen.Path(2), gen.Path(2), gen.Star(2), gen.Path(2)}, true},
		{"k4_mode1", ModeNonBipartiteFactor, gen.Cycle(5), []*graph.Graph{gen.Path(2), gen.Path(2), gen.Path(2), gen.Path(2)}, true},
		{"k3_relaxed_disc", ModeSelfLoopFactor, gen.Path(2),
			[]*graph.Graph{gen.DisjointUnion(gen.Path(2), gen.Path(3)), gen.Path(2), gen.Star(2)}, false},
		{"k2_relaxed_mode1_bipartiteA", ModeNonBipartiteFactor, gen.Path(3),
			[]*graph.Graph{sf(2, 3, 4, 5), gen.Path(2)}, false},
	}
}

func buildChainCase(t *testing.T, c chainCase) *Product {
	t.Helper()
	mk := NewChain
	if !c.strict {
		mk = NewChainRelaxed
	}
	p, err := mk(c.a, c.mode, c.bs...)
	if err != nil {
		t.Fatalf("building chain: %v", err)
	}
	return p
}

func edgeKey(v, w int) [2]int {
	if v > w {
		v, w = w, v
	}
	return [2]int{v, w}
}

func TestChainOracleEdgeSets(t *testing.T) {
	for _, c := range chainOracleCases() {
		t.Run(c.name, func(t *testing.T) {
			p := buildChainCase(t, c)
			g, err := p.Materialize(0)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != p.N() {
				t.Fatalf("N: chain %d, oracle %d", p.N(), g.N())
			}
			if int64(g.NumEdges()) != p.NumEdges() {
				t.Fatalf("NumEdges: chain %d, oracle %d", p.NumEdges(), g.NumEdges())
			}
			want := map[[2]int]bool{}
			for _, e := range g.Edges() {
				want[edgeKey(e.U, e.V)] = true
			}
			// Per-edge stream: exact set, no duplicates.
			got := map[[2]int]bool{}
			dup := false
			p.EachEdge(func(v, w int) bool {
				k := edgeKey(v, w)
				if got[k] {
					dup = true
				}
				got[k] = true
				return true
			})
			if dup {
				t.Fatal("EachEdge emitted a duplicate edge")
			}
			if len(got) != len(want) {
				t.Fatalf("edge stream size %d, oracle %d", len(got), len(want))
			}
			for k := range got {
				if !want[k] {
					t.Fatalf("stream emitted non-edge %v", k)
				}
			}
			// HasEdge agrees with the stream on edges and a non-edge sample.
			for k := range want {
				if !p.HasEdge(k[0], k[1]) || !p.HasEdge(k[1], k[0]) {
					t.Fatalf("HasEdge(%d,%d) = false for an oracle edge", k[0], k[1])
				}
			}
			step := p.N()/17 + 1
			for v := 0; v < p.N(); v += step {
				for w := 0; w < p.N(); w += step {
					if p.HasEdge(v, w) != want[edgeKey(v, w)] {
						t.Fatalf("HasEdge(%d,%d) = %v disagrees with oracle", v, w, p.HasEdge(v, w))
					}
				}
			}
		})
	}
}

func TestChainOracleBatchAndShards(t *testing.T) {
	for _, c := range chainOracleCases() {
		t.Run(c.name, func(t *testing.T) {
			p := buildChainCase(t, c)
			g, err := p.Materialize(0)
			if err != nil {
				t.Fatal(err)
			}
			want := map[[2]int]bool{}
			for _, e := range g.Edges() {
				want[edgeKey(e.U, e.V)] = true
			}
			for _, nshards := range []int{1, 2, 3, 7} {
				got := map[[2]int]bool{}
				var streamed int64
				for s := 0; s < nshards; s++ {
					var inShard int64
					err := p.EachEdgeBlockBatchContext(context.Background(), s, nshards, 0, 1, func(batch []exec.Edge) bool {
						for _, e := range batch {
							got[edgeKey(e.V, e.W)] = true
						}
						inShard += int64(len(batch))
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
					cnt, err := p.BlockEdgeCount(s, nshards, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					if cnt != inShard {
						t.Fatalf("nshards=%d shard %d: BlockEdgeCount %d, streamed %d", nshards, s, cnt, inShard)
					}
					streamed += inShard
				}
				if streamed != p.NumEdges() {
					t.Fatalf("nshards=%d: streamed %d edges, want %d", nshards, streamed, p.NumEdges())
				}
				if len(got) != len(want) {
					t.Fatalf("nshards=%d: batch union %d edges, oracle %d", nshards, len(got), len(want))
				}
				for k := range got {
					if !want[k] {
						t.Fatalf("nshards=%d: batch emitted non-edge %v", nshards, k)
					}
				}
			}
		})
	}
}

func TestChainOracleDegreesAndHistogram(t *testing.T) {
	for _, c := range chainOracleCases() {
		t.Run(c.name, func(t *testing.T) {
			p := buildChainCase(t, c)
			g, err := p.Materialize(0)
			if err != nil {
				t.Fatal(err)
			}
			deg := make([]int64, g.N())
			for _, e := range g.Edges() {
				deg[e.U]++
				deg[e.V]++
			}
			degs := p.Degrees()
			for v := range deg {
				if p.DegreeAt(v) != deg[v] {
					t.Fatalf("DegreeAt(%d) = %d, oracle %d", v, p.DegreeAt(v), deg[v])
				}
				if degs[v] != deg[v] {
					t.Fatalf("Degrees()[%d] = %d, oracle %d", v, degs[v], deg[v])
				}
			}
			wantHist := map[int64]int64{}
			for _, d := range deg {
				wantHist[d]++
			}
			hist := p.DegreeHistogram()
			if len(hist) != len(wantHist) {
				t.Fatalf("histogram has %d buckets, oracle %d (%v vs %v)", len(hist), len(wantHist), hist, wantHist)
			}
			for d, n := range wantHist {
				if hist[d] != n {
					t.Fatalf("histogram[%d] = %d, oracle %d", d, hist[d], n)
				}
			}
		})
	}
}

func TestChainOracleFourCycles(t *testing.T) {
	for _, c := range chainOracleCases() {
		t.Run(c.name, func(t *testing.T) {
			p := buildChainCase(t, c)
			g, err := p.Materialize(0)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := count.VertexButterflies(g)
			if err != nil {
				t.Fatal(err)
			}
			vec := p.VertexFourCycles()
			expr := p.VertexFourCyclesExpr()
			var global int64
			for v := range brute {
				if vec[v] != brute[v] {
					t.Fatalf("VertexFourCycles[%d] = %d, oracle %d", v, vec[v], brute[v])
				}
				if p.VertexFourCyclesAt(v) != brute[v] {
					t.Fatalf("VertexFourCyclesAt(%d) = %d, oracle %d", v, p.VertexFourCyclesAt(v), brute[v])
				}
				if expr.At(v) != 2*brute[v] {
					t.Fatalf("VertexFourCyclesExpr.At(%d) = %d, oracle 2·%d", v, expr.At(v), brute[v])
				}
				global += brute[v]
			}
			global /= 4
			if p.GlobalFourCycles() != global {
				t.Fatalf("GlobalFourCycles = %d, oracle %d", p.GlobalFourCycles(), global)
			}
			if expr.Sum()/8 != global {
				t.Fatalf("VertexFourCyclesExpr.Sum()/8 = %d, oracle %d", expr.Sum()/8, global)
			}
			if p.GlobalFourCyclesViaEdges() != global {
				t.Fatalf("GlobalFourCyclesViaEdges = %d, oracle %d", p.GlobalFourCyclesViaEdges(), global)
			}
			checked := 0
			p.EachEdgeFourCycle(func(v, w int, sq int64) bool {
				d, err := count.EdgeButterfliesAt(g, v, w)
				if err != nil {
					t.Fatalf("oracle EdgeButterfliesAt(%d,%d): %v", v, w, err)
				}
				if d != sq {
					t.Fatalf("EdgeFourCyclesAt(%d,%d) = %d, oracle %d", v, w, sq, d)
				}
				checked++
				return checked < 500 // bound the per-case cost
			})
		})
	}
}

func TestChainOracleDistancesAndSpectral(t *testing.T) {
	for _, c := range chainOracleCases() {
		t.Run(c.name, func(t *testing.T) {
			p := buildChainCase(t, c)
			g, err := p.Materialize(0)
			if err != nil {
				t.Fatal(err)
			}
			// Spectral radius factorizes for strict and relaxed alike.
			got, err := p.SpectralRadius(1e-12, 10000)
			if err != nil {
				t.Fatal(err)
			}
			want, err := GraphSpectralRadius(g, 1e-12, 10000)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("SpectralRadius = %g, oracle %g", got, want)
			}
			// Distance checks on sampled sources (BFS on the oracle).
			step := p.N()/23 + 1
			diam := 0
			for v := 0; v < p.N(); v += step {
				dist := g.BFS(v)
				ecc := 0
				for w, d := range dist {
					hops, ok := p.HopsAt(v, w)
					if d == graph.Unreached {
						if ok {
							t.Fatalf("HopsAt(%d,%d) = %d, oracle unreachable", v, w, hops)
						}
						continue
					}
					if !ok || hops != d {
						t.Fatalf("HopsAt(%d,%d) = %d (ok=%v), oracle %d", v, w, hops, ok, d)
					}
					if d > ecc {
						ecc = d
					}
				}
				if c.strict {
					e, err := p.EccentricityAt(v)
					if err != nil {
						t.Fatal(err)
					}
					if e != ecc {
						t.Fatalf("EccentricityAt(%d) = %d, oracle %d", v, e, ecc)
					}
				}
				if ecc > diam {
					diam = ecc
				}
			}
			if c.strict && step == 1 {
				d, err := p.Diameter()
				if err != nil {
					t.Fatal(err)
				}
				if d != diam {
					t.Fatalf("Diameter = %d, oracle %d", d, diam)
				}
			}
		})
	}
}

// TestChainDiameterExhaustive brute-forces the diameter on chains small
// enough to BFS from every vertex, exercising the per-level eccentricity
// fold end to end (the sampled test above only covers it when step == 1).
func TestChainDiameterExhaustive(t *testing.T) {
	cases := []chainCase{
		{"k2", ModeSelfLoopFactor, gen.Path(3), []*graph.Graph{gen.Path(3), gen.Path(2)}, true},
		{"k3", ModeSelfLoopFactor, gen.Path(2), []*graph.Graph{gen.Path(2), gen.Path(3), gen.Path(2)}, true},
		{"k3_mode1", ModeNonBipartiteFactor, gen.Complete(3), []*graph.Graph{gen.Path(2), gen.Path(2), gen.Path(3)}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := buildChainCase(t, c)
			g, err := p.Materialize(0)
			if err != nil {
				t.Fatal(err)
			}
			diam := 0
			for v := 0; v < g.N(); v++ {
				for _, d := range g.BFS(v) {
					if d > diam {
						diam = d
					}
				}
			}
			got, err := p.Diameter()
			if err != nil {
				t.Fatal(err)
			}
			if got != diam {
				t.Fatalf("Diameter = %d, brute force %d", got, diam)
			}
		})
	}
}

// TestShardEdgeCountEmptyShards: with more shards than layout rows some
// shards hold zero rows; their closed-form count must be 0 and the
// populated shards must still partition the edge set exactly.
func TestShardEdgeCountEmptyShards(t *testing.T) {
	p, err := NewChain(gen.Path(3), ModeSelfLoopFactor, gen.Path(2), gen.Path(2))
	if err != nil {
		t.Fatal(err)
	}
	rows := p.numRows()
	for _, nshards := range []int{rows, rows + 1, 3 * rows} {
		var total int64
		empties := 0
		for s := 0; s < nshards; s++ {
			cnt, err := p.BlockEdgeCount(s, nshards, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			var streamed int64
			if err := blockEdges(p, s, nshards, 0, 1, func(v, w int) bool {
				streamed++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if cnt != streamed {
				t.Fatalf("nshards=%d shard %d: count %d, streamed %d", nshards, s, cnt, streamed)
			}
			if cnt == 0 {
				empties++
			}
			total += cnt
		}
		if total != p.NumEdges() {
			t.Fatalf("nshards=%d: shard counts sum to %d, want %d", nshards, total, p.NumEdges())
		}
		if nshards > rows && empties == 0 {
			t.Fatalf("nshards=%d > rows=%d yet no empty shard", nshards, rows)
		}
	}
}

func TestRadixRoundTrip(t *testing.T) {
	cases := [][]int{{2}, {3, 2}, {2, 3, 4}, {5, 1, 3}, {2, 2, 2, 2, 3}}
	for _, sizes := range cases {
		r, err := NewRadix(sizes...)
		if err != nil {
			t.Fatal(err)
		}
		if r.K() != len(sizes) {
			t.Fatalf("K = %d, want %d", r.K(), len(sizes))
		}
		for v := 0; v < r.N(); v++ {
			digits := r.AppendDecode(nil, v)
			if len(digits) != len(sizes) {
				t.Fatalf("decode(%d) has %d digits, want %d", v, len(digits), len(sizes))
			}
			for t2, d := range digits {
				if d < 0 || d >= sizes[t2] {
					t.Fatalf("decode(%d) digit %d = %d out of radix %d", v, t2, d, sizes[t2])
				}
				if r.Digit(v, t2) != d {
					t.Fatalf("Digit(%d,%d) = %d, AppendDecode gives %d", v, t2, r.Digit(v, t2), d)
				}
			}
			if back := r.Encode(digits...); back != v {
				t.Fatalf("encode(decode(%d)) = %d", v, back)
			}
		}
	}
}

// TestChainVertexOverflow: four cycle-65536 factors push the vertex count
// to 2·65536⁴ = 2^65 > int64; construction must fail with a typed
// OverflowError before any per-vertex work happens.
func TestChainVertexOverflow(t *testing.T) {
	b := gen.Cycle(65536) // even cycle: connected, bipartite
	_, err := NewChain(gen.Path(2), ModeSelfLoopFactor, b, b, b, b)
	if err == nil {
		t.Fatal("accepted a chain with 2^65 vertices")
	}
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("error is %T (%v), want *OverflowError", err, err)
	}
	if oe.Quantity != "vertex count" {
		t.Fatalf("overflow quantity %q, want \"vertex count\"", oe.Quantity)
	}
}

// TestChainEdgeOverflow: six biclique-32x32 factors keep the vertex count
// at 2·64⁶ = 2^37 (fits) while the edge count passes 2^63; the layout
// computation must reject it with the typed error.
func TestChainEdgeOverflow(t *testing.T) {
	b := gen.CompleteBipartite(32, 32).Graph
	bs := make([]*graph.Graph, 6)
	for i := range bs {
		bs[i] = b
	}
	_, err := NewChain(gen.Path(2), ModeSelfLoopFactor, bs...)
	if err == nil {
		t.Fatal("accepted a chain with > 2^63 edges")
	}
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("error is %T (%v), want *OverflowError", err, err)
	}
	if oe.Quantity != "edge count" {
		t.Fatalf("overflow quantity %q, want \"edge count\"", oe.Quantity)
	}
	if oe.Error() == "" || fmt.Sprintf("%v", err) == "" {
		t.Fatal("overflow error must render a message")
	}
}

// TestChainFourCycleOverflow: crown4 chains keep every size small (a
// crown4 root with eight crown4 levels has 8⁹ = 2^27 vertices), but
// their 4-cycle count grows faster than the edge count.  Eight levels
// give 27,954,947,335,076,708,352 4-cycles (math/big), past 2^63; the
// global sums must reject it with the typed error rather than wrap.
// Seven levels still fit, and their count is exact.
func TestChainFourCycleOverflow(t *testing.T) {
	crown := gen.Crown(4).Graph
	chain := func(k int) (*Product, error) {
		bs := make([]*graph.Graph, k)
		for i := range bs {
			bs[i] = crown
		}
		return NewChain(crown, ModeSelfLoopFactor, bs...)
	}
	_, err := chain(8)
	if err == nil {
		t.Fatal("accepted a chain with > 2^63 4-cycles")
	}
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("error is %T (%v), want *OverflowError", err, err)
	}
	if oe.Quantity != "4-cycle count" {
		t.Fatalf("overflow quantity %q, want \"4-cycle count\"", oe.Quantity)
	}
	p, err := chain(7)
	if err != nil {
		t.Fatalf("seven crown4 levels: %v", err)
	}
	if got, want := p.GlobalFourCycles(), int64(166166359003103232); got != want {
		t.Fatalf("GlobalFourCycles = %d, math/big says %d", got, want)
	}
}
