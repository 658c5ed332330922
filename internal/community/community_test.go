package community

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kronbip/internal/core"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
)

// plantedFactor builds a bipartite graph with a dense planted block on the
// first du×dw vertices plus sparse background edges.
func plantedFactor(nu, nw, du, dw int, pBg float64, seed int64) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]int
	for u := 0; u < du; u++ {
		for w := 0; w < dw; w++ {
			if rng.Float64() < 0.9 {
				pairs = append(pairs, [2]int{u, w})
			}
		}
	}
	for u := 0; u < nu; u++ {
		for w := 0; w < nw; w++ {
			if (u >= du || w >= dw) && rng.Float64() < pBg {
				pairs = append(pairs, [2]int{u, w})
			}
		}
	}
	b, err := graph.NewBipartite(nu, nw, pairs)
	if err != nil {
		panic(err)
	}
	return b
}

// exactCounts computes m_in/m_out of a vertex set on an explicit graph.
func exactCounts(g *graph.Graph, members map[int]bool) (in, out int64) {
	g.EachEdge(func(u, v int) bool {
		switch {
		case members[u] && members[v]:
			in++
		case members[u] != members[v]:
			out++
		}
		return true
	})
	return in, out
}

func TestNewSetValidation(t *testing.T) {
	b := gen.CompleteBipartite(3, 3)
	if _, err := NewSet(b, []int{0, 99}); err == nil {
		t.Fatal("NewSet accepted out-of-range vertex")
	}
	if _, err := NewSet(b, []int{0, 0}); err == nil {
		t.Fatal("NewSet accepted duplicate vertex")
	}
	s, err := NewSet(b, []int{0, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.R) != 2 || len(s.T) != 2 {
		t.Fatalf("split R/T sizes %d/%d, want 2/2", len(s.R), len(s.T))
	}
	if s.Size() != 4 {
		t.Fatal("Size wrong")
	}
}

func TestSetEdgeCountsAgainstExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := plantedFactor(6, 7, 3, 3, 0.3, seed)
		var members []int
		inSet := map[int]bool{}
		for v := 0; v < b.N(); v++ {
			if rng.Float64() < 0.5 {
				members = append(members, v)
				inSet[v] = true
			}
		}
		s, err := NewSet(b, members)
		if err != nil {
			return false
		}
		in, out := exactCounts(b.Graph, inSet)
		return s.InternalEdges() == in && s.ExternalEdges() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDensitiesKnown(t *testing.T) {
	b := gen.CompleteBipartite(3, 4)
	// Full biclique community: ρ_in = 1.
	s, _ := NewSet(b, []int{0, 1, 2, 3, 4, 5, 6})
	if s.InternalDensity() != 1 {
		t.Fatalf("biclique ρ_in = %g, want 1", s.InternalDensity())
	}
	if s.ExternalEdges() != 0 {
		t.Fatal("whole-graph set has external edges")
	}
	// One-sided set has zero internal capacity.
	oneSide, _ := NewSet(b, []int{0, 1})
	if oneSide.InternalDensity() != 0 || oneSide.InternalEdges() != 0 {
		t.Fatal("one-sided set should have no internal structure")
	}
	if oneSide.ExternalEdges() != 8 {
		t.Fatalf("one-sided m_out = %d, want 8", oneSide.ExternalEdges())
	}
}

func mustProduct(t *testing.T, a *graph.Graph, b *graph.Bipartite) *core.Product {
	t.Helper()
	p, err := core.NewRelaxedWithParts(a, b, core.ModeSelfLoopFactor)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProductCommunityValidation(t *testing.T) {
	a := plantedFactor(4, 4, 2, 2, 0.2, 1)
	b := plantedFactor(5, 5, 2, 2, 0.2, 2)
	p := mustProduct(t, a.Graph, b)
	sa, _ := NewSet(a, []int{0, 4})
	sb, _ := NewSet(b, []int{0, 5})
	if _, err := NewProductCommunity(p, sa, sb); err != nil {
		t.Fatal(err)
	}
	// Mode (i) rejected.
	p1, err := core.NewRelaxed(gen.Complete(3), b.Graph, core.ModeNonBipartiteFactor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProductCommunity(p1, sa, sb); err == nil {
		t.Fatal("accepted mode (i) product")
	}
	// Mismatched factor sizes rejected.
	if _, err := NewProductCommunity(p, sb, sb); err == nil {
		t.Fatal("accepted S_A on wrong factor")
	}
}

// TestTheorem7ExactCounts is the central §III-C validation: the closed-form
// m_in/m_out of the product community must match exact counting on the
// materialized product.
func TestTheorem7ExactCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := plantedFactor(4, 5, 2, 3, 0.3, seed)
		b := plantedFactor(5, 4, 3, 2, 0.3, seed+1)
		p, err := core.NewRelaxedWithParts(a.Graph, b, core.ModeSelfLoopFactor)
		if err != nil {
			return false
		}
		pick := func(bp *graph.Bipartite) []int {
			var m []int
			for v := 0; v < bp.N(); v++ {
				if rng.Float64() < 0.45 {
					m = append(m, v)
				}
			}
			return m
		}
		sa, err := NewSet(a, pick(a))
		if err != nil {
			return false
		}
		sb, err := NewSet(b, pick(b))
		if err != nil {
			return false
		}
		pc, err := NewProductCommunity(p, sa, sb)
		if err != nil {
			return false
		}
		g, err := p.Materialize(0)
		if err != nil {
			return false
		}
		inSet := map[int]bool{}
		for _, v := range pc.Members() {
			inSet[v] = true
		}
		in, out := exactCounts(g, inSet)
		return pc.InternalEdges() == in && pc.ExternalEdges() == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCorollary1Bound checks ρ_in(S_C) ≥ 2θ·ρA·ρB ≥ ω·ρA·ρB on planted
// dense communities.
func TestCorollary1Bound(t *testing.T) {
	a := plantedFactor(8, 8, 4, 4, 0.1, 11)
	b := plantedFactor(8, 8, 4, 4, 0.1, 12)
	p := mustProduct(t, a.Graph, b)
	members := func(du, dw, nu int) []int {
		var m []int
		for u := 0; u < du; u++ {
			m = append(m, u)
		}
		for w := 0; w < dw; w++ {
			m = append(m, nu+w)
		}
		return m
	}
	sa, _ := NewSet(a, members(4, 4, 8))
	sb, _ := NewSet(b, members(4, 4, 8))
	pc, err := NewProductCommunity(p, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	rho := pc.InternalDensity()
	omegaB, thetaB := pc.Cor1Bound()
	if rho < thetaB {
		t.Fatalf("Cor 1 (θ form) violated: ρ_in(S_C)=%g < %g", rho, thetaB)
	}
	if thetaB < omegaB {
		t.Fatalf("θ bound %g below ω bound %g", thetaB, omegaB)
	}
	if omegaB <= 0 {
		t.Fatal("ω bound degenerate on a balanced planted community")
	}
	// The planted product community is genuinely dense.
	if rho < 0.25 {
		t.Fatalf("planted product community not dense: ρ_in = %g", rho)
	}
}

// TestCorollary2Bound checks ρ_out(S_C) ≤ (1+ξA)(1+ξB)/(1−ε²)·ρ_outA·ρ_outB.
func TestCorollary2Bound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := plantedFactor(7, 7, 3, 3, 0.25, seed)
		b := plantedFactor(7, 7, 3, 3, 0.25, seed+7)
		p, err := core.NewRelaxedWithParts(a.Graph, b, core.ModeSelfLoopFactor)
		if err != nil {
			return false
		}
		// Small planted sets keep ε < 1.
		var ma, mb []int
		for v := 0; v < 3; v++ {
			if rng.Float64() < 0.8 {
				ma = append(ma, v)
			}
			mb = append(mb, v)
		}
		ma = append(ma, 7) // one W-side vertex each
		mb = append(mb, 8)
		sa, err := NewSet(a, ma)
		if err != nil {
			return false
		}
		sb, err := NewSet(b, mb)
		if err != nil {
			return false
		}
		pc, err := NewProductCommunity(p, sa, sb)
		if err != nil {
			return false
		}
		bound := pc.Cor2Bound()
		if math.IsInf(bound, 1) {
			return true // degenerate premises; bound is vacuous
		}
		return pc.ExternalDensity() <= bound+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCor2Degenerate(t *testing.T) {
	// Whole-graph set: no external edges, ξ undefined → +Inf.
	b := gen.CompleteBipartite(3, 3)
	all := []int{0, 1, 2, 3, 4, 5}
	p := mustProduct(t, b.Graph, b)
	sa, _ := NewSet(b, all)
	sb, _ := NewSet(b, all)
	pc, _ := NewProductCommunity(p, sa, sb)
	if !math.IsInf(pc.Cor2Bound(), 1) {
		t.Fatal("Cor2Bound on whole-graph set should be +Inf")
	}
}

func TestProductCommunityMembersAndParts(t *testing.T) {
	a := plantedFactor(4, 4, 2, 2, 0.2, 3)
	b := plantedFactor(4, 4, 2, 2, 0.2, 4)
	p := mustProduct(t, a.Graph, b)
	sa, _ := NewSet(a, []int{0, 1, 4})
	sb, _ := NewSet(b, []int{1, 5, 6})
	pc, _ := NewProductCommunity(p, sa, sb)
	members := pc.Members()
	if len(members) != sa.Size()*sb.Size() {
		t.Fatalf("|S_C| = %d, want %d", len(members), sa.Size()*sb.Size())
	}
	rc, tc := pc.PartSizes()
	if rc != int64(sa.Size())*int64(len(sb.R)) || tc != int64(sa.Size())*int64(len(sb.T)) {
		t.Fatal("Def 12 part sizes wrong")
	}
	// Every member's side agrees with Def 12: side of (i,k) = side_B(k).
	for _, v := range members {
		side := p.SideOf(v)
		_, k := p.PairOf(v)
		if side != b.Part.Color[k] {
			t.Fatal("product side does not follow B's coloring")
		}
	}
}
