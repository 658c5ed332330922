package core

import (
	"testing"

	"kronbip/internal/count"
	"kronbip/internal/gen"
	"kronbip/internal/grb"
)

func TestChainThreeFactors(t *testing.T) {
	// ((P3+I) ⊗ P2) then (· + I) ⊗ P3: 3·2·3 = 18 vertices.
	p, err := NewChain(gen.Path(3), ModeSelfLoopFactor, gen.Path(2), gen.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 18 {
		t.Fatalf("chain n = %d, want 18", p.N())
	}
	g, err := p.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() || !g.IsBipartite() {
		t.Fatal("chained product must stay connected and bipartite (Thm. 2 per level)")
	}
	// Full ground-truth validation of the final level.
	want, err := count.VertexButterflies(g)
	if err != nil {
		t.Fatal(err)
	}
	if !grb.EqualVec(p.VertexFourCycles(), want) {
		t.Fatal("chain vertex 4-cycles disagree with brute force")
	}
	direct, _ := count.GlobalButterflies(g)
	if p.GlobalFourCycles() != direct {
		t.Fatalf("chain global = %d, brute force %d", p.GlobalFourCycles(), direct)
	}
}

func TestChainMode1First(t *testing.T) {
	// First level mode (i): K3 ⊗ P2 = C6, then (C6+I) ⊗ star3.
	p, err := NewChain(gen.Complete(3), ModeNonBipartiteFactor, gen.Path(2), gen.Star(3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() || !g.IsBipartite() {
		t.Fatal("mode-1-rooted chain must stay connected bipartite")
	}
	direct, _ := count.GlobalButterflies(g)
	if p.GlobalFourCycles() != direct {
		t.Fatalf("chain global = %d, brute force %d", p.GlobalFourCycles(), direct)
	}
	// Edge formulas hold on the final level too.
	ok := true
	p.EachEdgeFourCycle(func(v, w int, sq int64) bool {
		d, err := count.EdgeButterfliesAt(g, v, w)
		if err != nil || d != sq {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("chain edge 4-cycles disagree with brute force")
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := NewChain(gen.Path(3), ModeSelfLoopFactor); err == nil {
		t.Fatal("accepted empty chain")
	}
	if _, err := NewChainRelaxed(gen.Path(3), ModeSelfLoopFactor); err == nil {
		t.Fatal("relaxed accepted empty chain")
	}
	// Non-bipartite later factor breaks level-2 premises.
	if _, err := NewChain(gen.Path(3), ModeSelfLoopFactor, gen.Path(2), gen.Cycle(5)); err == nil {
		t.Fatal("accepted non-bipartite chained factor")
	}
}

func TestChainRelaxedDisconnectedFactor(t *testing.T) {
	disc := gen.DisjointUnion(gen.Path(2), gen.Path(2))
	p, err := NewChainRelaxed(gen.Path(2), ModeSelfLoopFactor, disc, gen.Path(2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := count.GlobalButterflies(g)
	if p.GlobalFourCycles() != direct {
		t.Fatal("relaxed chain ground truth wrong")
	}
}
