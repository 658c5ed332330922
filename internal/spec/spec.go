// Package spec is the canonical product-specification vocabulary shared
// by the command-line front ends and the HTTP service: a (factor chain,
// mode, seed) triple that deterministically names one Kronecker product.
// Both the CLI flag surface and the serve request decoder resolve specs
// through this package, so the two paths cannot drift, and the canonical
// string form doubles as the factor-spec cache key in internal/serve.
package spec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"kronbip/internal/core"
	"kronbip/internal/gen"
	"kronbip/internal/graph"
)

// Product construction modes, as spelled on the CLI and the wire.
const (
	ModeSelfLoop = "selfloop" // Assumption 1(ii): (A+I_A) ⊗ B₁ with A = B₁
	ModeNonBip   = "nonbip"   // Assumption 1(i): A ⊗ B₁ with A a 5-cycle
)

// Defaults applied by WithDefaults (and by the serve decoder for absent
// request fields).  They match the historical CLI flag defaults.
const (
	DefaultFactor = "unicode"
	DefaultMode   = ModeSelfLoop
	DefaultSeed   = int64(2020)
)

// Spec names one product: an ordered chain of bipartite factor specs, a
// construction mode and the seed consumed by the randomized factors
// (unicode, sf).  One factor is the historical two-factor product; each
// additional factor chains one more Kronecker level onto it,
//
//	C₁ = M₀ ⊗ B₁,   C_t = (C_{t-1} + I) ⊗ B_t,
//
// with M₀ = B₁+I (selfloop mode) or a 5-cycle (nonbip mode).
type Spec struct {
	Factors []string
	Mode    string
	Seed    int64
}

// WithDefaults fills an empty factor chain / mode with the package
// defaults.  Seed is kept as-is (zero is a legitimate seed); callers that
// decode from a wire format substitute DefaultSeed for an absent field.
func (s Spec) WithDefaults() Spec {
	if len(s.Factors) == 0 {
		s.Factors = []string{DefaultFactor}
	}
	if s.Mode == "" {
		s.Mode = DefaultMode
	}
	return s
}

// Canonical renders the spec (after defaulting) in its canonical string
// form — one factor= clause per chain level, in chain order, e.g.
// "factor=crown4 factor=path3 mode=selfloop seed=2020".  Equal products
// have equal canonical forms, so the string is a valid cache/dedupe key;
// Parse inverts it.  Note the factor list is ordered, not a set: chained
// Kronecker products do not commute, and a regrouped chain (a product(…)
// composite factor) canonicalizes differently from the flat chain with
// the same leaves.
func (s Spec) Canonical() string {
	s = s.WithDefaults()
	var b strings.Builder
	for _, f := range s.Factors {
		fmt.Fprintf(&b, "factor=%s ", f)
	}
	fmt.Fprintf(&b, "mode=%s seed=%d", s.Mode, s.Seed)
	return b.String()
}

// String returns the canonical form.
func (s Spec) String() string { return s.Canonical() }

// Parse inverts Canonical: it accepts space-separated key=value fields
// with any number of factor= clauses (order significant; absent fields
// take the defaults) and rejects unknown or non-repeatable duplicate
// keys, so Parse(s.Canonical()) round-trips every valid spec.
func Parse(text string) (Spec, error) {
	var s Spec
	seen := map[string]bool{}
	for _, field := range strings.Fields(text) {
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("spec: bad field %q (want key=value)", field)
		}
		switch key {
		case "factor":
			// Repeatable: each occurrence appends one chain level.
			s.Factors = append(s.Factors, value)
			continue
		case "mode":
			s.Mode = value
		case "seed":
			seed, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("spec: bad seed %q", value)
			}
			s.Seed = seed
		default:
			return Spec{}, fmt.Errorf("spec: unknown field %q", key)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("spec: duplicate field %q", key)
		}
		seen[key] = true
	}
	if !seen["seed"] {
		s.Seed = DefaultSeed
	}
	return s.WithDefaults(), nil
}

// MaxFactorSize bounds the vertex count and the edge count of every
// factor a spec names.  ParseFactor computes both from the spec's
// parameters before it allocates anything (and checks a product(…)
// factor's before materializing it), so an oversized spec is a parse
// error rather than gigabytes of memory, minutes of CPU or a makeslice
// panic.  Every factor the repository uses fits: the largest,
// sf2000x2000x40000, has 4,000 vertices and 40,000 requested edges.
const MaxFactorSize = 1 << 16

// checkSize rejects a factor with more than MaxFactorSize vertices or
// edges.  Callers combine parameters with add and mul, which saturate
// instead of wrapping, so no parameter can overflow its way past.
func checkSize(factorSpec string, vertices, edges int) error {
	if vertices > MaxFactorSize || edges > MaxFactorSize {
		return tooLarge(factorSpec)
	}
	return nil
}

func tooLarge(factorSpec string) error {
	return fmt.Errorf("factor %q is too large (over %d vertices or edges)", factorSpec, MaxFactorSize)
}

// add and mul combine non-negative counts, saturating at math.MaxInt.
func add(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func mul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// ParseFactor resolves a factor spec string into a bipartite factor
// graph.  Recognized specs: unicode, crown<N>, biclique<NU>x<NW>,
// cycle<N>, path<N>, star<N>, hypercube<D>, sf<NU>x<NW>x<EDGES>, and the
// composite product(<F1>,<F2>) — the materialized self-loop product of
// two factor specs, usable anywhere a leaf factor is.  The composite is
// how a regrouped chain is spelled: "factor=product(crown4,path2)
// factor=path3" names ((crown4 ∘ path2) ∘ path3) with the inner product
// built eagerly, which is a different object — and a different canonical
// string — than the flat three-level chain.  A factor over MaxFactorSize
// vertices or edges is an error.
func ParseFactor(factorSpec string, seed int64) (*graph.Bipartite, error) {
	num := func(s string) (int, error) { return strconv.Atoi(s) }
	switch {
	case factorSpec == "unicode":
		return gen.UnicodeLike(seed), nil
	case strings.HasPrefix(factorSpec, "product(") && strings.HasSuffix(factorSpec, ")"):
		return parseProductFactor(factorSpec, seed)
	case strings.HasPrefix(factorSpec, "crown"):
		n, err := num(factorSpec[len("crown"):])
		if err != nil || n < 3 {
			return nil, fmt.Errorf("bad crown spec %q (want crown<N>, N>=3)", factorSpec)
		}
		if err := checkSize(factorSpec, add(n, n), mul(n, n-1)); err != nil {
			return nil, err
		}
		return gen.Crown(n), nil
	case strings.HasPrefix(factorSpec, "biclique"):
		parts := strings.Split(factorSpec[len("biclique"):], "x")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad biclique spec %q (want biclique<NU>x<NW>)", factorSpec)
		}
		nu, err1 := num(parts[0])
		nw, err2 := num(parts[1])
		if err1 != nil || err2 != nil || nu < 1 || nw < 1 {
			return nil, fmt.Errorf("bad biclique spec %q", factorSpec)
		}
		if err := checkSize(factorSpec, add(nu, nw), mul(nu, nw)); err != nil {
			return nil, err
		}
		return gen.CompleteBipartite(nu, nw), nil
	case strings.HasPrefix(factorSpec, "sf"):
		parts := strings.Split(factorSpec[len("sf"):], "x")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad scale-free spec %q (want sf<NU>x<NW>x<EDGES>)", factorSpec)
		}
		nu, err1 := num(parts[0])
		nw, err2 := num(parts[1])
		m, err3 := num(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || nu < 1 || nw < 1 || m < 0 {
			return nil, fmt.Errorf("bad scale-free spec %q", factorSpec)
		}
		if err := checkSize(factorSpec, add(nu, nw), m); err != nil {
			return nil, err
		}
		return gen.ConnectedBipartiteScaleFree(nu, nw, m, seed), nil
	case strings.HasPrefix(factorSpec, "cycle"):
		n, err := num(factorSpec[len("cycle"):])
		if err != nil || n < 4 || n%2 != 0 {
			return nil, fmt.Errorf("bad cycle spec %q (need even N >= 4 for a bipartite cycle)", factorSpec)
		}
		if err := checkSize(factorSpec, n, n); err != nil {
			return nil, err
		}
		return graph.AsBipartite(gen.Cycle(n))
	case strings.HasPrefix(factorSpec, "path"):
		n, err := num(factorSpec[len("path"):])
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad path spec %q", factorSpec)
		}
		if err := checkSize(factorSpec, n, n-1); err != nil {
			return nil, err
		}
		return graph.AsBipartite(gen.Path(n))
	case strings.HasPrefix(factorSpec, "star"):
		n, err := num(factorSpec[len("star"):])
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad star spec %q", factorSpec)
		}
		if err := checkSize(factorSpec, n, n-1); err != nil {
			return nil, err
		}
		return graph.AsBipartite(gen.Star(n))
	case strings.HasPrefix(factorSpec, "hypercube"):
		d, err := num(factorSpec[len("hypercube"):])
		if err != nil || d < 1 || d > 16 {
			return nil, fmt.Errorf("bad hypercube spec %q", factorSpec)
		}
		if err := checkSize(factorSpec, 1<<d, d<<(d-1)); err != nil {
			return nil, err
		}
		return graph.AsBipartite(gen.Hypercube(d))
	default:
		return nil, fmt.Errorf("unknown factor %q", factorSpec)
	}
}

// splitTopLevel splits s on commas that are not nested inside
// parentheses, so product(product(a,b),c) resolves its own two operands.
func splitTopLevel(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// parseProductFactor materializes product(<F1>,<F2>): the self-loop-mode
// product of the two (recursively parsed) operand factors, returned as an
// explicit bipartite graph whose sides come from the product's own
// ground-truth bipartition.  Strict construction is preferred; relaxed is
// the fallback for disconnected operands (see buildChain).
func parseProductFactor(factorSpec string, seed int64) (*graph.Bipartite, error) {
	inner := factorSpec[len("product(") : len(factorSpec)-1]
	ops := splitTopLevel(inner)
	if len(ops) != 2 || ops[0] == "" || ops[1] == "" {
		return nil, fmt.Errorf("bad product spec %q (want product(<F1>,<F2>))", factorSpec)
	}
	f1, err := ParseFactor(strings.TrimSpace(ops[0]), seed)
	if err != nil {
		return nil, fmt.Errorf("product operand 1: %w", err)
	}
	f2, err := ParseFactor(strings.TrimSpace(ops[1]), seed)
	if err != nil {
		return nil, fmt.Errorf("product operand 2: %w", err)
	}
	p, err := buildChain(f1.Graph, core.ModeSelfLoopFactor, []*graph.Bipartite{f2})
	if err != nil {
		return nil, fmt.Errorf("bad product spec %q: %w", factorSpec, err)
	}
	if p.N() > MaxFactorSize || p.NumEdges() > MaxFactorSize {
		return nil, tooLarge(factorSpec)
	}
	g, err := p.Materialize(0)
	if err != nil {
		return nil, fmt.Errorf("materializing product factor %q: %w", factorSpec, err)
	}
	part := graph.Bipartition{Color: make([]graph.Side, p.N())}
	for v := 0; v < p.N(); v++ {
		side := p.SideOf(v)
		part.Color[v] = side
		if side == graph.SideU {
			part.U = append(part.U, v)
		} else {
			part.W = append(part.W, v)
		}
	}
	return &graph.Bipartite{Graph: g, Part: part}, nil
}

// BuildFactors resolves every factor clause of the (defaulted) spec, in
// chain order.  Exposed so front ends can report per-level factor shapes.
func (s Spec) BuildFactors() ([]*graph.Bipartite, error) {
	s = s.WithDefaults()
	bs := make([]*graph.Bipartite, len(s.Factors))
	for i, f := range s.Factors {
		b, err := ParseFactor(f, s.Seed)
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

// Build assembles the chained product the spec names, preferring the
// strict constructor (which certifies Thm. 1/2 connectivity per level and
// unlocks the distance ground truth) and falling back to the relaxed one
// for disconnected factors like the unicode network (see buildChain).
func (s Spec) Build() (*core.Product, error) {
	s = s.WithDefaults()
	bs, err := s.BuildFactors()
	if err != nil {
		return nil, err
	}
	var a *graph.Graph
	var m core.Mode
	switch s.Mode {
	case ModeSelfLoop:
		a, m = bs[0].Graph, core.ModeSelfLoopFactor
	case ModeNonBip:
		a, m = gen.Cycle(5), core.ModeNonBipartiteFactor
	default:
		return nil, fmt.Errorf("unknown mode %q (want %s or %s)", s.Mode, ModeSelfLoop, ModeNonBip)
	}
	return buildChain(a, m, bs)
}

// buildChain runs the strict chain constructor once and the relaxed one
// only if the strict one failed before computing any statistics.  The
// constructor makes every check that needs no statistics first, so its
// only later failure is the 4-cycle *core.OverflowError, which the
// relaxed constructor would reach again; every *core.OverflowError is
// returned as is.  Any other strict failure is a strict-only premise
// (connectivity, or mode (i)'s non-bipartite A), which the relaxed run
// waives, or a check both share, which fails there again at once.
func buildChain(a *graph.Graph, m core.Mode, bs []*graph.Bipartite) (*core.Product, error) {
	p, err := core.NewChainWithParts(a, m, bs...)
	var overflow *core.OverflowError
	if err == nil || errors.As(err, &overflow) {
		return p, err
	}
	return core.NewChainRelaxedWithParts(a, m, bs...)
}
