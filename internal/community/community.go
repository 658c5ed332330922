// Package community implements the paper's §III-C: internal/external edge
// counts and densities of bipartite vertex sets (Def. 11), Kronecker
// products of sets (Def. 12), the exact product edge-count formulas
// (Thm. 7), and the density scaling laws (Cor. 1–2) showing that dense
// communities in the factors yield dense communities in the product.
package community

import (
	"fmt"
	"math"
	"sort"

	"kronbip/internal/core"
	"kronbip/internal/graph"
)

// Set is a bipartite community: a vertex subset S = R ∪ T of a bipartite
// graph with R ⊂ U and T ⊂ W (Def. 11).
type Set struct {
	B       *graph.Bipartite
	Members []int // sorted, deduplicated
	R, T    []int // members split by side, sorted

	inSet []bool // indicator 1_S
}

// NewSet validates and indexes a community.
func NewSet(b *graph.Bipartite, members []int) (*Set, error) {
	s := &Set{B: b, inSet: make([]bool, b.N())}
	seen := map[int]bool{}
	for _, v := range members {
		if v < 0 || v >= b.N() {
			return nil, fmt.Errorf("community: vertex %d out of range", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("community: duplicate vertex %d", v)
		}
		seen[v] = true
		s.Members = append(s.Members, v)
		s.inSet[v] = true
		if b.Part.Color[v] == graph.SideU {
			s.R = append(s.R, v)
		} else {
			s.T = append(s.T, v)
		}
	}
	sort.Ints(s.Members)
	sort.Ints(s.R)
	sort.Ints(s.T)
	return s, nil
}

// Size returns |S|.
func (s *Set) Size() int { return len(s.Members) }

// InternalEdges returns m_in(S) = ½·1_Sᵗ A 1_S, the number of edges with
// both endpoints in S.
func (s *Set) InternalEdges() int64 {
	var m int64
	for _, v := range s.Members {
		for _, w := range s.B.Neighbors(v) {
			if s.inSet[w] {
				m++
			}
		}
	}
	return m / 2
}

// ExternalEdges returns m_out(S) = 1_Sᵗ A (1 − 1_S), the number of edges
// with exactly one endpoint in S.
func (s *Set) ExternalEdges() int64 {
	var m int64
	for _, v := range s.Members {
		for _, w := range s.B.Neighbors(v) {
			if !s.inSet[w] {
				m++
			}
		}
	}
	return m
}

// InternalDensity returns ρ_in(S) = m_in / (|R|·|T|), the fraction of
// possible internal bipartite edges present (Def. 11).  Zero-capacity sets
// (empty R or T) report 0.
func (s *Set) InternalDensity() float64 {
	cap := int64(len(s.R)) * int64(len(s.T))
	if cap == 0 {
		return 0
	}
	return float64(s.InternalEdges()) / float64(cap)
}

// ExternalDensity returns ρ_out(S) = m_out / (|R||W| + |U||T| − 2|R||T|)
// (Def. 11).  Zero-capacity boundaries report 0.
func (s *Set) ExternalDensity() float64 {
	cap := s.externalCapacity()
	if cap == 0 {
		return 0
	}
	return float64(s.ExternalEdges()) / float64(cap)
}

func (s *Set) externalCapacity() int64 {
	r, t := int64(len(s.R)), int64(len(s.T))
	u, w := int64(s.B.NU()), int64(s.B.NW())
	return r*w + u*t - 2*r*t
}

// ProductCommunity is the Kronecker product of two factor communities
// inside a mode-(ii) product C = (A+I_A) ⊗ B (Def. 12):
// S_C = supp(1_{S_A} ⊗ 1_{S_B}), with R_C = S_A ⊗ R_B and T_C = S_A ⊗ T_B.
type ProductCommunity struct {
	P      *core.Product
	SA, SB *Set
}

// NewProductCommunity validates the Thm. 7 premises: the product must be
// mode (ii) and the sets must live on its factors.
func NewProductCommunity(p *core.Product, sa, sb *Set) (*ProductCommunity, error) {
	if p.Mode() != core.ModeSelfLoopFactor {
		return nil, fmt.Errorf("community: Thm. 7 is stated for C = (A+I_A) ⊗ B (mode (ii))")
	}
	if p.Arity() != 2 {
		return nil, fmt.Errorf("community: Thm. 7 is stated for a two-factor product; this chain has arity %d", p.Arity())
	}
	if sa.B.N() != p.FactorA().N() {
		return nil, fmt.Errorf("community: S_A lives on a %d-vertex graph, factor A has %d", sa.B.N(), p.FactorA().N())
	}
	if sb.B.N() != p.FactorB().N() {
		return nil, fmt.Errorf("community: S_B lives on a %d-vertex graph, factor B has %d", sb.B.N(), p.FactorB().N())
	}
	// The density denominators of Def. 11/12 assume the product's U_C/W_C
	// split follows S_B's declared bipartition of B; for disconnected B a
	// fresh 2-coloring can disagree, so require consistency.
	for k := 0; k < p.FactorB().N(); k++ {
		if p.SideOf(p.IndexOf(0, k)) != sb.B.Part.Color[k] {
			return nil, fmt.Errorf("community: product bipartition disagrees with S_B's at B-vertex %d; construct the product with core.NewRelaxedWithParts(a, b, mode) using the same *graph.Bipartite", k)
		}
	}
	return &ProductCommunity{P: p, SA: sa, SB: sb}, nil
}

// Members returns the vertex ids of S_C, sorted.
func (pc *ProductCommunity) Members() []int {
	out := make([]int, 0, len(pc.SA.Members)*len(pc.SB.Members))
	for _, i := range pc.SA.Members {
		for _, k := range pc.SB.Members {
			out = append(out, pc.P.IndexOf(i, k))
		}
	}
	sort.Ints(out)
	return out
}

// PartSizes returns |R_C| = |S_A|·|R_B| and |T_C| = |S_A|·|T_B| (Def. 12).
func (pc *ProductCommunity) PartSizes() (rc, tc int64) {
	sa := int64(pc.SA.Size())
	return sa * int64(len(pc.SB.R)), sa * int64(len(pc.SB.T))
}

// InternalEdges returns m_in(S_C) exactly, via Thm. 7:
//
//	m_in(S_C) = 2·m_in(S_A)·m_in(S_B) + |S_A|·m_in(S_B).
func (pc *ProductCommunity) InternalEdges() int64 {
	mA, mB := pc.SA.InternalEdges(), pc.SB.InternalEdges()
	return 2*mA*mB + int64(pc.SA.Size())*mB
}

// ExternalEdges returns m_out(S_C) exactly, via Thm. 7:
//
//	m_out(S_C) = m_out(S_A)m_out(S_B) + 2m_out(S_A)m_in(S_B)
//	           + |S_A|·m_out(S_B) + 2m_in(S_A)m_out(S_B).
func (pc *ProductCommunity) ExternalEdges() int64 {
	mAi, mBi := pc.SA.InternalEdges(), pc.SB.InternalEdges()
	mAo, mBo := pc.SA.ExternalEdges(), pc.SB.ExternalEdges()
	return mAo*mBo + 2*mAo*mBi + int64(pc.SA.Size())*mBo + 2*mAi*mBo
}

// InternalDensity returns ρ_in(S_C) = m_in(S_C) / (|R_C|·|T_C|).
func (pc *ProductCommunity) InternalDensity() float64 {
	rc, tc := pc.PartSizes()
	if rc*tc == 0 {
		return 0
	}
	return float64(pc.InternalEdges()) / float64(rc*tc)
}

// ExternalDensity returns ρ_out(S_C) per Def. 11 applied to C.
func (pc *ProductCommunity) ExternalDensity() float64 {
	rc, tc := pc.PartSizes()
	nuC, nwC := pc.P.PartSizes()
	cap := rc*int64(nwC) + int64(nuC)*tc - 2*rc*tc
	if cap == 0 {
		return 0
	}
	return float64(pc.ExternalEdges()) / float64(cap)
}

// Omega returns ω = min(|R_A|, |T_A|) / |S_A| (Cor. 1).
func (pc *ProductCommunity) Omega() float64 {
	sa := float64(pc.SA.Size())
	if sa == 0 {
		return 0
	}
	return math.Min(float64(len(pc.SA.R)), float64(len(pc.SA.T))) / sa
}

// Cor1Bound returns the internal-density scaling-law lower bound.
//
// Erratum note: the paper's Cor. 1 proof writes ρ_in(S_C) with a doubled
// numerator (2m_in) while using the single-m_in Def. 11 for the factor
// densities, and so claims a constant of 2ω.  With Def. 11 applied
// consistently everywhere (as this package does) the provable chain is
//
//	ρ_in(S_C) > 2θ·ρ_in(S_A)·ρ_in(S_B) ≥ ω·ρ_in(S_A)·ρ_in(S_B),
//
// where θ = |R_A||T_A|/|S_A|² ≥ ω/2.  Both the tight 2θ bound and the
// simple ω bound are returned.
func (pc *ProductCommunity) Cor1Bound() (omegaBound, thetaBound float64) {
	rhoA, rhoB := pc.SA.InternalDensity(), pc.SB.InternalDensity()
	sa := float64(pc.SA.Size())
	if sa == 0 {
		return 0, 0
	}
	theta := float64(len(pc.SA.R)) * float64(len(pc.SA.T)) / (sa * sa)
	return pc.Omega() * rhoA * rhoB, 2 * theta * rhoA * rhoB
}

// Cor2Bound returns the external-density scaling-law upper bound
//
//	ρ_out(S_C) ≤ (1+ξ_A)(1+ξ_B) / (1−ε²) · ρ_out(S_A)·ρ_out(S_B),
//
// with ξ_S = (2m_in(S)+|S|)/m_out(S) and
// ε = max(|S_A|/|V_A|, |R_B|/|U_B|, |T_B|/|W_B|).  When a factor has no
// external edges (ξ undefined) or ε ≥ 1, the bound degenerates and +Inf is
// returned.
func (pc *ProductCommunity) Cor2Bound() float64 {
	mAo, mBo := pc.SA.ExternalEdges(), pc.SB.ExternalEdges()
	if mAo == 0 || mBo == 0 {
		return math.Inf(1)
	}
	xiA := float64(2*pc.SA.InternalEdges()+int64(pc.SA.Size())) / float64(mAo)
	xiB := float64(2*pc.SB.InternalEdges()+int64(pc.SB.Size())) / float64(mBo)
	eps := math.Max(
		float64(pc.SA.Size())/float64(pc.SA.B.N()),
		math.Max(
			float64(len(pc.SB.R))/float64(pc.SB.B.NU()),
			float64(len(pc.SB.T))/float64(pc.SB.B.NW()),
		),
	)
	if eps >= 1 {
		return math.Inf(1)
	}
	return (1 + xiA) * (1 + xiB) / (1 - eps*eps) *
		pc.SA.ExternalDensity() * pc.SB.ExternalDensity()
}
