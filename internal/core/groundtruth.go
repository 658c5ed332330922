package core

import (
	"fmt"

	"kronbip/internal/exec"
)

// This file implements the paper's ground-truth formulas (Thm. 3–5) plus
// the derived mode-(ii) edge formula and sublinear global counts, composed
// across factor chains: each chain level C_t = (C_{t-1}+I) ⊗ B_t applies
// the same mode-(ii) algebra with the (never materialized) prefix as its
// left factor, so every statistic folds level by level in O(K).
//
// Erratum note: the printed statement of Thm. 4 carries the d_C and d_C²
// terms with swapped signs relative to the paper's own proof (which expands
// s_C = ½(diag(C⁴) − d_C∘d_C − C²·1 + C·1), so the correct signs are
// −d_C∘d_C and +d_C).  Similarly the printed 13-term point-wise expansion
// of Thm. 5 omits a "+2" constant (take A=K₃, B=K₂: C=C₆ is 4-cycle-free
// and the printed expansion yields −2 per edge).  We implement the
// proof-consistent forms; the test suite validates them against three
// independent brute-force counters.

// VertexFourCyclesAt returns s_v, the number of 4-cycles through product
// vertex v, in O(K) from factor statistics (Thm. 3 / Thm. 4, applied per
// chain level):
//
//	s_v = ½ ( diag(C⁴)_v − d_v² − w⁽²⁾_v + d_v ).
func (p *Product) VertexFourCyclesAt(v int) int64 {
	d, w2, d4 := p.vertexStats(v)
	return (d4 - d*d - w2 + d) / 2
}

// diag4A returns diag(M₀⁴)_i for the effective root factor M₀:
//
//	mode (i):  diag(A⁴)_i  = 2s_i + d_i² + w⁽²⁾_i − d_i
//	mode (ii): diag((A+I)⁴)_i = diag(A⁴)_i + 6d_i + 1
//	                          = 2s_i + d_i² + w⁽²⁾_i + 5d_i + 1
//
// (mode (ii) uses diag(A³) = diag(A) = 0 for bipartite loop-free A).
// The same +6d+1 shift is the per-level lift vertexStats applies between
// chain levels.
func (p *Product) diag4A(i int) int64 {
	d4 := p.a.diag4(i)
	if p.mode == ModeSelfLoopFactor {
		d4 += 6*p.a.D[i] + 1
	}
	return d4
}

// VertexFourCycles returns the full vector s_C via the Kronecker vector
// identity of Thm. 3/4 folded across the chain — O(|V_C|) time, the
// intermediate level vectors growing geometrically up to |V_C|.
func (p *Product) VertexFourCycles() []int64 {
	// Fold the (d, d², w⁽²⁾, diag⁴) vectors level by level; the final
	// combine is then pure arithmetic per vertex.
	dv := append([]int64(nil), p.a.D...)
	wv := append([]int64(nil), p.a.W2...)
	d4v := make([]int64, p.a.N())
	for i := range d4v {
		d4v[i] = p.a.diag4(i)
	}
	lift := p.mode == ModeSelfLoopFactor
	for _, f := range p.bs {
		if lift {
			for i := range dv {
				d4v[i] += 6*dv[i] + 1
				wv[i] += 2*dv[i] + 1
				dv[i]++
			}
		}
		fd4 := make([]int64, f.N())
		for x := range fd4 {
			fd4[x] = f.diag4(x)
		}
		dv = kronFold(dv, f.D)
		wv = kronFold(wv, f.W2)
		d4v = kronFold(d4v, fd4)
		lift = true
	}
	out := make([]int64, p.N())
	for v := range out {
		d := dv[v]
		out[v] = (d4v[v] - d*d - wv[v] + d) / 2
	}
	return out
}

// kronFold is the Kronecker vector product x ⊗ y written locally so the
// ground-truth folds do not depend on grb's allocation behavior.
func kronFold(x, y []int64) []int64 {
	out := make([]int64, len(x)*len(y))
	idx := 0
	for _, a := range x {
		for _, b := range y {
			out[idx] = a * b
			idx++
		}
	}
	return out
}

// GlobalFourCycles returns the total number of distinct 4-cycles in C in
// O(Σ n_t) time given the factor statistics: every term of Thm. 3/4 is a
// (chained) Kronecker product of factor vectors, and Σ(x ⊗ y) = Σx · Σy,
// so the sum of s_C — which is 4·□(C), each 4-cycle touching 4 vertices —
// factorizes level by level (the paper's "global scalar quantities are
// computed sublinearly" claim).  The folded sums are fixed at
// construction (computeGlobalSums).
func (p *Product) GlobalFourCycles() int64 {
	twiceSum := p.sumDiag4 - p.sumD2 - p.sumW2 + p.sumD
	return twiceSum / 8 // ½ for s_C, then Σs_C = 4·□(C)
}

// EdgeFourCyclesAt returns ◊_vw, the number of 4-cycles through product
// edge {v,w}, in O(K·log d) (the factor-edge lookups).  It errors if
// {v,w} is not an edge of C.
//
// Mode (i), K = 1, from the Thm. 5 proof:
//
//	◊_pq = (◊_ij + d_i + d_j − 1)(◊_kl + d_k + d_l − 1) − d_i·d_k − d_j·d_l + 1.
//
// Mode (ii) (derived; see DESIGN.md §2): with M = A+I and (M³∘M) =
// (A³∘A) + 3A + 3·Diag(d_A) + I for bipartite loop-free A,
//
//	◊_pq = m3·(◊_kl + d_k + d_l − 1) − (d_i+1)d_k − (d_j+1)d_l + 1,
//	m3   = ◊_ij + d_i + d_j + 2   (i ≠ j, an A-edge)
//	m3   = 3d_i + 1               (i = j, the self loop).
//
// Chains iterate the same step upward from the anchor level (the first
// digit where the endpoints differ): each level's ◊ and endpoint degrees
// produce the next level's 3-walk anchor m3 = ◊ + d_v + d_w − 1 + 3, the
// +3 being the 3A term of ((C+I)³ ∘ (C+I)) for bipartite loop-free C.
func (p *Product) EdgeFourCyclesAt(v, w int) (int64, error) {
	if !p.HasEdge(v, w) {
		return 0, fmt.Errorf("core: {%d,%d} is not an edge of the product", v, w)
	}
	k := len(p.bs)
	var bufV, bufW [digitBuf]int
	dv := p.rad.AppendDecode(bufV[:0], v)
	dw := p.rad.AppendDecode(bufW[:0], w)
	anchor := 0
	for dv[anchor] == dw[anchor] {
		anchor++ // HasEdge guarantees a differing digit exists
	}
	// m3 is the (M³∘M) entry at the anchor; mv/mw are the M-level degrees
	// of the two prefixes entering the first folded level.
	var m3, mv, mw int64
	start := anchor
	if anchor == 0 {
		m3 = p.a.walk3(dv[0], dw[0])
		mv, mw = p.a.D[dv[0]], p.a.D[dw[0]]
		if p.mode == ModeSelfLoopFactor {
			m3 += 3
			mv++
			mw++
		}
		start = 1
	} else {
		// Self-loop anchor: both prefixes coincide through level anchor−1.
		// Fold that prefix's chain degree, then M = prefix+I gives
		// m3 = 3d+1 and degree d+1.
		dpre := p.a.D[dv[0]]
		lift := p.mode == ModeSelfLoopFactor
		for u := 1; u < anchor; u++ {
			if lift {
				dpre++
			}
			dpre *= p.bs[u-1].D[dv[u]]
			lift = true
		}
		m3 = 3*dpre + 1
		mv, mw = dpre+1, dpre+1
	}
	var sq int64
	for u := start; u <= k; u++ {
		f := p.bs[u-1]
		if u > start {
			// Climb one level: m3 = ◊ + d_v + d_w − 1 + 3 with the
			// previous level's ◊ and raw degrees; mv/mw already carry the
			// +1 lift, so the constants cancel.
			m3 = sq + mv + mw
		}
		fv := mv * f.D[dv[u]]
		fw := mw * f.D[dw[u]]
		sq = m3*f.walk3(dv[u], dw[u]) - fv - fw + 1
		mv, mw = fv+1, fw+1
	}
	return sq, nil
}

// EachEdgeFourCycle streams (v, w, ◊_vw) for every undirected product edge
// exactly once, in EachEdge order — the paper's "local quantities are
// produced in linear time" path.  It replays the ◊ walk's batches edge by
// edge: the walk folds Thm. 5 per prefix pair, so an edge costs three
// multiplies, not a point query.  Stops early if yield returns false.
func (p *Product) EachEdgeFourCycle(yield func(v, w int, squares int64) bool) {
	p.walkFour(func(batch []exec.Edge, sq []int64) bool {
		for i, e := range batch {
			if !yield(e.V, e.W, sq[i]) {
				return false
			}
		}
		return true
	})
}

// DegreeHistogram returns the exact degree distribution of the product —
// degree → number of product vertices with that degree — as a K-fold
// multiplicative convolution of the factor histograms with a +1 key shift
// between levels (the +I lift): d_v = d_{M₀}(i)·∏(…+1)·d_{B_t}(k_t).
// Cost is ∏ distinct-degree counts; the product's |V_C| never enters the
// computation — another "sublinear ground truth" statistic.
func (p *Product) DegreeHistogram() map[int64]int64 {
	hist := map[int64]int64{}
	for _, d := range p.a.D {
		hist[d]++
	}
	lift := p.mode == ModeSelfLoopFactor
	for _, f := range p.bs {
		if lift {
			shifted := make(map[int64]int64, len(hist))
			for d, c := range hist {
				shifted[d+1] = c
			}
			hist = shifted
		}
		histB := map[int64]int64{}
		for _, d := range f.D {
			histB[d]++
		}
		next := make(map[int64]int64, len(hist)*len(histB))
		for da, ca := range hist {
			for db, cb := range histB {
				next[da*db] += ca * cb
			}
		}
		hist = next
		lift = true
	}
	return hist
}

// GlobalFourCyclesViaEdges recomputes □(C) from the edge stream:
// Σ_{edges} ◊ = 4·□(C) since each 4-cycle has four edges.  One ◊ walk,
// O(|E_C|) at a few nanoseconds per edge; used as an internal
// consistency check (must equal GlobalFourCycles) and as the oracle of
// PriceBlockRangeContext, which reaches the same sum per prefix pair.
func (p *Product) GlobalFourCyclesViaEdges() int64 {
	var sum int64
	p.walkFour(func(_ []exec.Edge, sq []int64) bool {
		for _, s := range sq {
			sum += s
		}
		return true
	})
	return sum / 4
}
