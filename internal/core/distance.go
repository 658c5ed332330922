package core

import (
	"context"
	"fmt"

	"kronbip/internal/graph"
	"kronbip/internal/obs"
)

// Distance ground truth.  The paper notes (§I, citing the prior Kronecker
// ground-truth work) that formulas for degree, diameter and eccentricity
// "carry over directly"; this file implements them exactly for both
// Assumption 1 modes, composed across factor chains.
//
// The key fact: (C^h)_{pq} = (M^h)_{ij}·(B^h)_{kl}, and a walk of length h
// and parity h mod 2 can always be padded by retracing edges (+2 hops), so
// reachability at horizon h is characterized per factor by shortest
// even/odd walk lengths:
//
//	mode (i), C = A ⊗ B:   hops_C = max( minOddEvenWalk_A(i,j; t), hops_B(k,l) ),
//	                        t = hops_B(k,l) mod 2  (B is bipartite: all k→l
//	                        walks share that parity),
//	mode (ii), C = (A+I) ⊗ B: (M^h)_{ij} > 0 ⇔ h ≥ hops_A(i,j) (laziness
//	                        erases parity), so hops_C is max(hops_A, hops_B)
//	                        rounded up to the parity of hops_B(k,l).
//
// Chain levels t >= 2 are mode-(ii) products with the previous level as A,
// so the mode-(ii) rule folds upward: the running scalar plays hops_A, the
// level's own BFS table plays hops_B.  The fold step
// h ↦ roundUp(max(h, hB), parity(hB)) is nondecreasing in h, which is what
// lets eccentricity and diameter fold the per-level maxima as scalars
// instead of enumerating the product's vertex set.
type distanceIndex struct {
	parityA []graph.ParityDistances // mode (i): even/odd walk lengths in A
	hopsA   [][]int                 // mode (ii): plain BFS distances in A
	hopsB   [][][]int               // per chain level: plain BFS distances in B_t
}

var errRelaxedDistances = fmt.Errorf("core: eccentricity/diameter ground truth requires the strict Assumption 1 premises (construct with New, NewChain or NewChainWithParts); relaxed products may be disconnected")

func (p *Product) distances() *distanceIndex {
	idx, _ := p.distancesContext(context.Background()) // background ctx: cannot fail
	return idx
}

// distancesContext builds (or returns) the factor BFS tables, checking ctx
// between per-vertex BFS runs so a SIGINT or deadline aborts the O(Σ n·m)
// precompute promptly.  A cancelled build leaves no partial state; the next
// call rebuilds from scratch.
func (p *Product) distancesContext(ctx context.Context) (*distanceIndex, error) {
	p.distMu.Lock()
	defer p.distMu.Unlock()
	if p.dist != nil {
		return p.dist, nil
	}
	defer obs.Timed("core.distances")()
	idx := &distanceIndex{hopsB: make([][][]int, len(p.bs))}
	for t, f := range p.bs {
		idx.hopsB[t] = make([][]int, f.N())
		for k := 0; k < f.N(); k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			idx.hopsB[t][k] = f.G.BFS(k)
		}
	}
	if p.mode == ModeNonBipartiteFactor {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx.parityA = p.a.G.AllParityBFS()
	} else {
		idx.hopsA = make([][]int, p.a.N())
		for i := 0; i < p.a.N(); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			idx.hopsA[i] = p.a.G.BFS(i)
		}
	}
	p.dist = idx
	return idx, nil
}

// checkDistanceFactors enforces the preconditions under which the
// eccentricity/diameter folds are exact: strict premises (connectivity) and
// every B_t non-trivial (a single-vertex B_t has no edges, making the whole
// product edgeless).
func (p *Product) checkDistanceFactors() error {
	if !p.strict {
		return errRelaxedDistances
	}
	for t, f := range p.bs {
		if f.N() < 2 {
			return fmt.Errorf("core: factor %s has fewer than 2 vertices; the product has no edges", bName(t, len(p.bs)))
		}
	}
	return nil
}

// HopsAt returns the exact shortest-path distance between product vertices
// v and w, computed from factor BFS tables in O(K) after an O(Σ n·m)
// per-factor precomputation.  ok is false when w is unreachable from v.
func (p *Product) HopsAt(v, w int) (hops int, ok bool) {
	hops, ok, _ = p.HopsAtContext(context.Background(), v, w)
	return hops, ok
}

// HopsAtContext is HopsAt under a context: the first call on a Product
// pays the factor BFS precompute, which checks ctx between per-vertex
// BFS runs and aborts with ctx.Err() on cancellation.
func (p *Product) HopsAtContext(ctx context.Context, v, w int) (hops int, ok bool, err error) {
	if v == w {
		return 0, true, nil
	}
	idx, err := p.distancesContext(ctx)
	if err != nil {
		return 0, false, err
	}
	var bufV, bufW [digitBuf]int
	dv := p.rad.AppendDecode(bufV[:0], v)
	dw := p.rad.AppendDecode(bufW[:0], w)
	// Level 1 is the requested mode.
	hB := idx.hopsB[0][dv[1]][dw[1]]
	if hB == graph.Unreached {
		return 0, false, nil
	}
	t := hB % 2
	var h int
	if p.mode == ModeNonBipartiteFactor {
		wA := idx.parityA[dv[0]].MinWalk(dw[0], t)
		if wA == graph.Unreached {
			return 0, false, nil
		}
		h = hB
		if wA > h {
			h = wA
		}
	} else {
		hA := idx.hopsA[dv[0]][dw[0]]
		if hA == graph.Unreached {
			return 0, false, nil
		}
		h = hB
		if hA > h {
			h = hA
		}
		if h%2 != t {
			h++
		}
	}
	// Levels u >= 2 are mode-(ii) steps with the running h as hops_A.
	for u := 2; u <= len(p.bs); u++ {
		hBu := idx.hopsB[u-1][dv[u]][dw[u]]
		if hBu == graph.Unreached {
			return 0, false, nil
		}
		if hBu > h {
			h = hBu
		} else if h%2 != hBu%2 {
			h++
		}
	}
	return h, true, nil
}

// foldLevelEcc applies one chain level (u >= 2) to a running eccentricity:
// the maximum over targets l of roundUp(max(h, hops_{B_u}(k,l)),
// parity(hops_{B_u}(k,l))).  Monotonicity of the fold step in h makes the
// scalar h — the max over all shorter-prefix targets — sufficient.
func foldLevelEcc(h int, hopsRow []int) int {
	out := 0
	for _, d := range hopsRow {
		hv := h
		if d > hv {
			hv = d
		} else if hv%2 != d%2 {
			hv++
		}
		if hv > out {
			out = hv
		}
	}
	return out
}

// EccentricityAt returns the exact eccentricity of product vertex v — the
// maximum distance to any other product vertex — from factor statistics.
// It requires the strict Assumption 1 premises (Thm. 1/2), under which the
// product is connected.
func (p *Product) EccentricityAt(v int) (int, error) {
	if err := p.checkDistanceFactors(); err != nil {
		return 0, err
	}
	idx := p.distances()
	var buf [digitBuf]int
	dv := p.rad.AppendDecode(buf[:0], v)
	i, k := dv[0], dv[1]
	ecc := 0
	for t := 0; t < 2; t++ {
		// Largest hops_B1(k,l) among l with parity t; both parities are
		// realized for every k in a connected bipartite B₁ with >= 2 vertices.
		maxB := -1
		for _, d := range idx.hopsB[0][k] {
			if d != graph.Unreached && d%2 == t && d > maxB {
				maxB = d
			}
		}
		if maxB < 0 {
			continue
		}
		var h int
		if p.mode == ModeNonBipartiteFactor {
			// max over j of the shortest parity-t walk in A; strictness
			// guarantees A is connected and non-bipartite, so finite.
			maxA := 0
			for j := 0; j < p.a.N(); j++ {
				w := idx.parityA[i].MinWalk(j, t)
				if w == graph.Unreached {
					return 0, fmt.Errorf("core: internal: parity-%d walk missing in strict mode (i)", t)
				}
				if w > maxA {
					maxA = w
				}
			}
			h = maxA
			if maxB > h {
				h = maxB
			}
		} else {
			maxA := 0
			for j := 0; j < p.a.N(); j++ {
				d := idx.hopsA[i][j]
				if d == graph.Unreached {
					return 0, fmt.Errorf("core: internal: factor A disconnected in strict mode (ii)")
				}
				if d > maxA {
					maxA = d
				}
			}
			h = maxA
			if maxB > h {
				h = maxB
			}
			if h%2 != t {
				h++
			}
		}
		if h > ecc {
			ecc = h
		}
	}
	for u := 2; u <= len(p.bs); u++ {
		ecc = foldLevelEcc(ecc, idx.hopsB[u-1][dv[u]])
	}
	return ecc, nil
}

// Diameter returns the exact diameter of the product from factor
// statistics, in O(Σ n·m) total.  Requires strict premises.
func (p *Product) Diameter() (int, error) {
	return p.DiameterContext(context.Background())
}

// DiameterContext is Diameter under a context: the factor BFS precompute
// (the dominant cost) checks ctx between per-vertex BFS runs and aborts
// with ctx.Err() on cancellation.
func (p *Product) DiameterContext(ctx context.Context) (int, error) {
	if err := p.checkDistanceFactors(); err != nil {
		return 0, err
	}
	idx, err := p.distancesContext(ctx)
	if err != nil {
		return 0, err
	}
	diam := 0
	for t := 0; t < 2; t++ {
		maxB := -1
		for k := range idx.hopsB[0] {
			for _, d := range idx.hopsB[0][k] {
				if d != graph.Unreached && d%2 == t && d > maxB {
					maxB = d
				}
			}
		}
		if maxB < 0 {
			continue
		}
		var h int
		if p.mode == ModeNonBipartiteFactor {
			maxA := 0
			for i := range idx.parityA {
				for j := 0; j < p.a.N(); j++ {
					if w := idx.parityA[i].MinWalk(j, t); w > maxA {
						maxA = w
					}
				}
			}
			h = maxA
			if maxB > h {
				h = maxB
			}
		} else {
			maxA := 0 // the diameter of A
			for i := range idx.hopsA {
				for _, d := range idx.hopsA[i] {
					if d > maxA {
						maxA = d
					}
				}
			}
			h = maxA
			if maxB > h {
				h = maxB
			}
			if h%2 != t {
				h++
			}
		}
		if h > diam {
			diam = h
		}
	}
	// Levels u >= 2: max over source digit k and target digit l of the
	// mode-(ii) fold step applied to the running diameter.
	for u := 2; u <= len(p.bs); u++ {
		level := 0
		for k := range idx.hopsB[u-1] {
			if e := foldLevelEcc(diam, idx.hopsB[u-1][k]); e > level {
				level = e
			}
		}
		diam = level
	}
	return diam, nil
}
