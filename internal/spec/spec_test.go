package spec

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"kronbip/internal/core"
)

func TestParseFactorSpecs(t *testing.T) {
	cases := []struct {
		spec   string
		nu, nw int
		edges  int
	}{
		{"crown4", 4, 4, 12},
		{"biclique3x5", 3, 5, 15},
		{"cycle6", 3, 3, 6},
		{"path5", 3, 2, 4},
		{"star4", 1, 3, 3},
		{"hypercube3", 4, 4, 12},
		{"unicode", 254, 614, 1256},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			b, err := ParseFactor(tc.spec, 2020)
			if err != nil {
				t.Fatal(err)
			}
			if b.NU() != tc.nu || b.NW() != tc.nw {
				t.Fatalf("parts %d/%d, want %d/%d", b.NU(), b.NW(), tc.nu, tc.nw)
			}
			if b.NumEdges() != tc.edges {
				t.Fatalf("edges = %d, want %d", b.NumEdges(), tc.edges)
			}
		})
	}
	// Scale-free spec shape.
	sf, err := ParseFactor("sf20x30x50", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sf.NU() != 20 || sf.NW() != 30 {
		t.Fatal("sf parts wrong")
	}
}

// TestParseFactorSizeLimit: a factor is accepted up to MaxFactorSize
// vertices and edges and rejected one step past it, with its counts
// computed from the parameters (huge ones saturate, never wrap) and a
// product(…)'s checked before it is materialized.
func TestParseFactorSizeLimit(t *testing.T) {
	for _, s := range []string{"path65536", "star65536", "cycle65536", "crown256", "biclique256x256", "biclique1x65535", "hypercube13", "product(crown16,path3)"} {
		if _, err := ParseFactor(s, 1); err != nil {
			t.Errorf("%s: %v, want it accepted", s, err)
		}
	}
	for _, s := range []string{
		"path65537", "star65537", "cycle65538", "crown257", "biclique256x257", "hypercube14",
		"sf40000x40000x10", "sf10x10x65537", "product(crown32,crown8)",
		"crown400", "path1000000", "biclique3037000500x3037000500", "biclique9223372036854775807x2",
	} {
		if _, err := ParseFactor(s, 1); err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("%s: err = %v, want a too-large error", s, err)
		}
	}
}

func TestParseFactorErrors(t *testing.T) {
	bad := []string{
		"nope", "crown2", "crownx", "biclique3", "biclique3x", "bicliqueAxB",
		"cycle5", "cycle3", "cyclex", "path1", "star1", "hypercube0",
		"hypercube99", "sf3x4", "sfAxBxC", "sf0x4x5", "sf4x-1x5", "sf4x4x-5",
		"product()", "product(crown4)", "product(crown4,)", "product(,path2)",
		"product(crown4,nope)", "product(nope,path2)", "product(crown4,path2,path3)",
	}
	for _, s := range bad {
		if _, err := ParseFactor(s, 1); err == nil {
			t.Fatalf("accepted bad spec %q", s)
		}
	}
}

// TestProductFactorComposite: product(<F1>,<F2>) materializes the
// self-loop product of its operands, so used as the first factor of a
// chain it is exactly the "(A⊗B1)⊗B2 grouped eagerly" spelling.
func TestProductFactorComposite(t *testing.T) {
	b, err := ParseFactor("product(crown4,path2)", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The composite must equal the chain's own level: (crown4+I) ⊗ path2.
	inner, err := Spec{Factors: []string{"crown4", "path2"}, Mode: ModeSelfLoop, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The spec chain for ["crown4","path2"] is ((crown4+I)⊗crown4 +I)⊗path2;
	// the composite is one level: (crown4+I)⊗path2.  Compare against the
	// direct core build instead.
	f1, _ := ParseFactor("crown4", 1)
	f2, _ := ParseFactor("path2", 1)
	direct, err := core.NewChainWithParts(f1.Graph, core.ModeSelfLoopFactor, f2)
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != direct.N() || int64(b.NumEdges()) != direct.NumEdges() {
		t.Fatalf("composite shape (%d,%d), direct product (%d,%d)",
			b.N(), b.NumEdges(), direct.N(), direct.NumEdges())
	}
	if b.NU()+b.NW() != b.N() {
		t.Fatal("composite bipartition does not cover the graph")
	}
	_ = inner
	// Nested composites parse too.
	if _, err := ParseFactor("product(product(crown4,path2),path3)", 1); err != nil {
		t.Fatalf("nested product: %v", err)
	}
}

// TestGroupingChangesSpec: the regrouped chain and the flat chain are
// different objects with different canonical strings (the serve cache
// must never conflate them).
func TestGroupingChangesSpec(t *testing.T) {
	flat := Spec{Factors: []string{"crown4", "path2", "path3"}, Mode: ModeSelfLoop, Seed: 1}
	grouped := Spec{Factors: []string{"product(crown4,path2)", "path3"}, Mode: ModeSelfLoop, Seed: 1}
	if flat.Canonical() == grouped.Canonical() {
		t.Fatalf("flat and grouped chains share a canonical form %q", flat.Canonical())
	}
	pf, err := flat.Build()
	if err != nil {
		t.Fatal(err)
	}
	pg, err := grouped.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pf.N() == pg.N() && pf.NumEdges() == pg.NumEdges() {
		t.Fatal("flat and grouped chains built indistinguishable products; grouping should matter")
	}
}

func TestBuildModes(t *testing.T) {
	p, err := Spec{Factors: []string{"crown4"}, Mode: ModeSelfLoop, Seed: 1}.Build()
	if err != nil {
		t.Fatalf("Build selfloop: %v", err)
	}
	if p.Mode() != core.ModeSelfLoopFactor {
		t.Errorf("mode = %v, want self-loop", p.Mode())
	}
	p, err = Spec{Factors: []string{"crown4"}, Mode: ModeNonBip, Seed: 1}.Build()
	if err != nil {
		t.Fatalf("Build nonbip: %v", err)
	}
	if p.Mode() != core.ModeNonBipartiteFactor {
		t.Errorf("mode = %v, want non-bipartite", p.Mode())
	}
	if _, err := (Spec{Factors: []string{"crown4"}, Mode: "bogus", Seed: 1}).Build(); err == nil {
		t.Error("bogus mode: want error")
	}
	if _, err := (Spec{Factors: []string{"nope"}, Mode: ModeSelfLoop, Seed: 1}).Build(); err == nil {
		t.Error("bogus factor: want error")
	}
}

func TestBuildChainArity(t *testing.T) {
	p, err := Spec{Factors: []string{"crown4", "path3", "path2"}, Mode: ModeSelfLoop, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Self-loop chains pair the first factor with itself, then chain the
	// rest: arity = len(Factors) + 1.
	if p.Arity() != 4 {
		t.Fatalf("arity = %d, want 4", p.Arity())
	}
	if p.N() != 8*8*3*2 {
		t.Fatalf("N = %d, want %d", p.N(), 8*8*3*2)
	}
	p, err = Spec{Factors: []string{"crown4", "path3"}, Mode: ModeNonBip, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 3 {
		t.Fatalf("nonbip chain arity = %d, want 3", p.Arity())
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Factors: []string{"crown4"}},
		{Factors: []string{"unicode"}, Mode: ModeSelfLoop, Seed: 2020},
		{Factors: []string{"sf20x30x50"}, Mode: ModeNonBip, Seed: -7},
		{Factors: []string{"biclique3x5"}, Mode: ModeSelfLoop, Seed: 0},
		{Factors: []string{"crown4", "path3"}, Mode: ModeSelfLoop, Seed: 5},
		{Factors: []string{"crown4", "path3", "star4", "cycle6"}, Mode: ModeNonBip, Seed: 9},
		{Factors: []string{"product(crown4,path2)", "path3"}, Mode: ModeSelfLoop, Seed: 1},
	}
	for _, s := range specs {
		got, err := Parse(s.Canonical())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.Canonical(), err)
		}
		// Round-tripping is defined up to defaulting: the canonical
		// form always spells out every field.
		if !reflect.DeepEqual(got, s.WithDefaults()) {
			t.Errorf("Parse(Canonical(%+v)) = %+v, want %+v", s, got, s.WithDefaults())
		}
		if got.Canonical() != s.Canonical() {
			t.Errorf("canonical not stable: %q vs %q", got.Canonical(), s.Canonical())
		}
	}
}

// TestFactorOrderSignificant: factor clauses are a chain, not a set —
// reordering them names a different product and a different key.
func TestFactorOrderSignificant(t *testing.T) {
	ab := Spec{Factors: []string{"crown4", "path3"}, Mode: ModeSelfLoop, Seed: 1}
	ba := Spec{Factors: []string{"path3", "crown4"}, Mode: ModeSelfLoop, Seed: 1}
	if ab.Canonical() == ba.Canonical() {
		t.Fatal("factor order lost in canonical form")
	}
	pab, err := ab.Build()
	if err != nil {
		t.Fatal(err)
	}
	pba, err := ba.Build()
	if err != nil {
		t.Fatal(err)
	}
	if pab.NumEdges() == pba.NumEdges() {
		t.Fatal("reordered chains built products with identical edge counts; expected different graphs")
	}
}

func TestParseDefaultsAndOrder(t *testing.T) {
	got, err := Parse("seed=7 factor=crown4")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Spec{Factors: []string{"crown4"}, Mode: ModeSelfLoop, Seed: 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
	got, err = Parse("")
	if err != nil {
		t.Fatalf("Parse(empty): %v", err)
	}
	if !reflect.DeepEqual(got, Spec{Factors: []string{DefaultFactor}, Mode: DefaultMode, Seed: DefaultSeed}) {
		t.Errorf("empty spec did not default: %+v", got)
	}
	// Repeated factor clauses accumulate in order.
	got, err = Parse("factor=a factor=b factor=c")
	if err != nil {
		t.Fatalf("Parse(chain): %v", err)
	}
	if !reflect.DeepEqual(got.Factors, []string{"a", "b", "c"}) {
		t.Errorf("chain factors = %v", got.Factors)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"factor", "seed=xyz", "color=blue", "mode=a mode=b", "seed=1 seed=2"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
}

// TestCLIAndWireAgree is the anti-drift check the refactor exists for:
// the same spec resolved through the canonical string (the serve
// cache-key path) and directly (the CLI path) must name identical
// products — including chained ones.
func TestCLIAndWireAgree(t *testing.T) {
	for _, direct := range []Spec{
		{Factors: []string{"crown5"}, Mode: ModeSelfLoop, Seed: 11},
		{Factors: []string{"crown4", "path3", "path2"}, Mode: ModeSelfLoop, Seed: 11},
	} {
		viaWire, err := Parse(direct.Canonical())
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		pd, err := direct.Build()
		if err != nil {
			t.Fatalf("Build(direct): %v", err)
		}
		pw, err := viaWire.Build()
		if err != nil {
			t.Fatalf("Build(wire): %v", err)
		}
		if pd.N() != pw.N() || pd.NumEdges() != pw.NumEdges() || pd.GlobalFourCycles() != pw.GlobalFourCycles() {
			t.Errorf("products differ: (%d,%d,%d) vs (%d,%d,%d)",
				pd.N(), pd.NumEdges(), pd.GlobalFourCycles(),
				pw.N(), pw.NumEdges(), pw.GlobalFourCycles())
		}
	}
}

// FuzzParseRoundTrip: for any input Parse accepts, Canonical must be a
// fixed point — parse(canonical(parse(x))) == parse(x) — and factor
// clauses must survive verbatim and in order.  The seed corpus spans
// every grammar feature (defaults, chains, composites, negative seeds).
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"",
		"factor=crown4",
		"factor=unicode mode=selfloop seed=2020",
		"factor=crown4 factor=path3 mode=nonbip seed=-7",
		"factor=crown4 factor=path3 factor=star4 factor=cycle6 mode=selfloop seed=9",
		"factor=product(crown4,path2) factor=path3 mode=selfloop seed=1",
		"factor=product(product(crown4,path2),path3) mode=selfloop seed=0",
		"seed=7 factor=crown4",
		"mode=nonbip",
		"factor=sf20x30x50 seed=123456789",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s1, err := Parse(text)
		if err != nil {
			return // rejected inputs are out of scope
		}
		c1 := s1.Canonical()
		s2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", c1, text, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("round trip drifted: %+v vs %+v", s1, s2)
		}
		if c2 := s2.Canonical(); c1 != c2 {
			t.Fatalf("canonical not a fixed point: %q vs %q", c1, c2)
		}
		// Each input factor clause must appear in the canonical form.
		for _, fc := range s1.Factors {
			if !strings.Contains(c1, "factor="+fc+" ") {
				t.Fatalf("factor %q lost from canonical %q", fc, c1)
			}
		}
	})
}

// TestBuildSharesSelfloopFactor: a selfloop spec passes B₁'s graph as
// A, and the chain computes that graph's statistics once.
func TestBuildSharesSelfloopFactor(t *testing.T) {
	p, err := Spec{Factors: []string{"crown4", "path3"}, Mode: ModeSelfLoop, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if fs := p.Factors(); p.FactorA() != fs[1] || fs[1] == fs[2] {
		t.Fatal("selfloop spec: A and B₁ do not share one *core.Factor")
	}
}

// TestBuildOverflowIsTyped: a factor inside MaxFactorSize whose chain
// 4-cycle count overflows fails with a *core.OverflowError, the error
// of the one constructor run.
func TestBuildOverflowIsTyped(t *testing.T) {
	for _, f := range []string{"crown256", "biclique256x256", "star65536"} {
		_, err := Spec{Factors: []string{f}}.WithDefaults().Build()
		var overflow *core.OverflowError
		if !errors.As(err, &overflow) {
			t.Errorf("%s: Build error %v, want a *core.OverflowError", f, err)
		}
	}
}
