package core

import (
	"context"
	"fmt"
	"sync"

	"kronbip/internal/graph"
	"kronbip/internal/grb"
)

// Mode selects which of the paper's Assumption 1 constructions the product
// uses.
type Mode int

// Product construction modes.
const (
	// ModeNonBipartiteFactor is Assumption 1(i): C = A ⊗ B with A
	// non-bipartite, B bipartite, both connected and loop-free (Thm. 1).
	ModeNonBipartiteFactor Mode = iota
	// ModeSelfLoopFactor is Assumption 1(ii): C = (A + I_A) ⊗ B with A and
	// B bipartite, connected and loop-free (Thm. 2).
	ModeSelfLoopFactor
)

func (m Mode) String() string {
	switch m {
	case ModeNonBipartiteFactor:
		return "A⊗B (non-bipartite A)"
	case ModeSelfLoopFactor:
		return "(A+I)⊗B (self loops on A)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Product is a non-stochastic Kronecker factor chain
//
//	C₁ = M₀ ⊗ B₁,   C_t = (C_{t-1} + I) ⊗ B_t   (t ≥ 2),
//
// where M₀ is A (mode (i)) or A+I_A (mode (ii)), described entirely by its
// factors; no level of the chain is ever stored.  The classic two-factor
// product is the K = 1 case of this type.  Vertices are mixed-radix digit
// tuples (i, k₁, …, k_K) over the factor sizes (see Radix); for K = 1 this
// is the historical pairing p = i·n_B + k.
//
// Every ground-truth formula composes across the chain: edge counts and
// 4-cycle diagonals are per-level products (with a +I lift between levels),
// the degree histogram is a K-fold multiplicative convolution, distances
// fold as parity-rounded maxima, and the spectral radius is a product of
// factor radii.  The chain's closed-form sizes are overflow-checked at
// construction (see OverflowError), so a spec that cannot be generated is
// rejected before any work happens.
type Product struct {
	mode Mode
	a    *Factor
	bs   []*Factor // B₁ … B_K, K >= 1
	rad  Radix     // digit sizes (n_A, n_B1, …, n_BK)
	// mEdges holds the factor edge counts (|E_A|, |E_B1|, …, |E_BK|),
	// the only walk state kept between walks: edge lists are rebuilt
	// per walk (see walk.go).
	mEdges []int

	colorB []graph.Side // bipartition of the last factor (fixes C's bipartition)
	nuB    int          // |U_{B_K}|
	nwB    int          // |W_{B_K}|

	// strict records whether the full Assumption 1 premises (connectivity,
	// and non-bipartiteness of A in mode (i)) were verified at construction,
	// at every chain level.
	strict bool

	// Closed forms fixed at construction (all overflow-checked):
	nEdges int64 // |E_C|

	// Shard layout: rows of term t occupy [termOff[t], termOff[t+1]), each
	// emitting termPer[t] product edges.  Term 0 rows are A edges; term
	// t >= 1 rows are the +I self loops of the level-(t-1) prefix (term 1
	// exists only in mode (ii)).
	termOff []int
	termPer []int64

	// Vertex-statistic sums over the final level, for the sublinear global
	// 4-cycle count: Σd, Σd², Σw⁽²⁾, Σdiag(C⁴).
	sumD, sumD2, sumW2, sumDiag4 int64

	// Lazily built factor BFS tables backing the exact distance ground
	// truth (HopsAt, EccentricityAt, Diameter).  Guarded by a mutex
	// rather than sync.Once so a context-cancelled precompute can be
	// retried on the next call.
	distMu sync.Mutex
	dist   *distanceIndex
}

// New constructs a two-factor Product (the K = 1 chain) and verifies the
// full premises of Assumption 1 and Theorems 1–2, so the result is
// guaranteed connected and bipartite:
//
//	mode (i):  A connected, undirected, non-bipartite; B connected bipartite.
//	mode (ii): A and B connected, undirected, bipartite.
//
// Factors must be loop-free; mode (ii) adds the self loops internally.
func New(a, b *graph.Graph, mode Mode) (*Product, error) {
	return newChain(a, mode, []*graph.Graph{b}, true)
}

// NewRelaxed constructs a two-factor Product checking only the structural
// requirements the ground-truth formulas need:
//
//   - both factors loop-free and undirected,
//   - B bipartite (so C is bipartite),
//   - mode (ii): A bipartite (the Thm. 4 expansion uses diag(A³) = 0 and
//     A² ∘ A = 0, which need A free of odd closed walks).
//
// Connectivity of the product is NOT guaranteed.  The paper's own Table I
// experiment uses a disconnected unicode factor and needs this constructor.
func NewRelaxed(a, b *graph.Graph, mode Mode) (*Product, error) {
	return newChain(a, mode, []*graph.Graph{b}, false)
}

// NewChain constructs the K-factor chain C = A ⊗ B₁ ⊗ … ⊗ B_K (every
// level past the first uses the self-loop construction, the only way to
// keep stacking bipartite factors while preserving connectivity — Thm. 2
// applies level by level).  The strict premises are verified for every
// level: A as in New, every B_t connected and bipartite.  No intermediate
// level is ever materialized; memory stays O(Σ factor sizes).
func NewChain(a *graph.Graph, mode Mode, bs ...*graph.Graph) (*Product, error) {
	return newChain(a, mode, bs, true)
}

// NewChainRelaxed is NewChain without the connectivity premises (factors
// may be disconnected); every counting formula remains exact.
func NewChainRelaxed(a *graph.Graph, mode Mode, bs ...*graph.Graph) (*Product, error) {
	return newChain(a, mode, bs, false)
}

// NewWithParts is New with B supplied as a *graph.Bipartite whose declared
// bipartition (rather than a fresh 2-coloring) fixes the product's U_C/W_C
// split.  For disconnected B the two can differ: a BFS 2-coloring picks
// arbitrary sides per component, while datasets such as the paper's unicode
// network carry a semantic side assignment.
func NewWithParts(a *graph.Graph, b *graph.Bipartite, mode Mode) (*Product, error) {
	return NewChainWithParts(a, mode, b)
}

// NewRelaxedWithParts is NewRelaxed honoring B's declared bipartition.
func NewRelaxedWithParts(a *graph.Graph, b *graph.Bipartite, mode Mode) (*Product, error) {
	return NewChainRelaxedWithParts(a, mode, b)
}

// NewChainWithParts is NewChain with the B factors supplied as declared
// bipartite graphs.  The LAST factor's declared bipartition fixes the
// product's U_C/W_C split (the product inherits B_K's sides); earlier
// declared partitions do not influence any closed form.
func NewChainWithParts(a *graph.Graph, mode Mode, bs ...*graph.Bipartite) (*Product, error) {
	return newChainWithParts(a, mode, bs, true)
}

// NewChainRelaxedWithParts is NewChainWithParts without the connectivity
// premises.
func NewChainRelaxedWithParts(a *graph.Graph, mode Mode, bs ...*graph.Bipartite) (*Product, error) {
	return newChainWithParts(a, mode, bs, false)
}

func newChainWithParts(a *graph.Graph, mode Mode, bs []*graph.Bipartite, strict bool) (*Product, error) {
	gs := make([]*graph.Graph, len(bs))
	for t, b := range bs {
		gs[t] = b.Graph
	}
	p, err := newChain(a, mode, gs, strict)
	if err != nil {
		return nil, err
	}
	return p.withParts(bs[len(bs)-1])
}

// bName names factor B_t in error messages: "B" for a two-factor product
// (the historical wording), "B<t>" inside a longer chain.
func bName(t, k int) string {
	if k == 1 {
		return "B"
	}
	return fmt.Sprintf("B%d", t+1)
}

func newChain(a *graph.Graph, mode Mode, bs []*graph.Graph, strict bool) (*Product, error) {
	if mode != ModeNonBipartiteFactor && mode != ModeSelfLoopFactor {
		return nil, fmt.Errorf("core: unknown mode %d", mode)
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("core: chain needs at least one B factor")
	}
	k := len(bs)
	fbs := make([]*Factor, k)
	var lastPart *graph.Bipartition
	for t, b := range bs {
		fb, err := NewFactor(b)
		if err != nil {
			return nil, fmt.Errorf("core: factor %s: %w", bName(t, k), err)
		}
		// Every right factor must be bipartite: B₁ so C₁ is bipartite, and
		// each later B_t because level t is a mode-(ii) product whose left
		// operand C_{t-1}+I must stay the lazy lift of a bipartite graph.
		bp, _, ok := b.Bipartition()
		if !ok {
			return nil, fmt.Errorf("core: factor %s must be bipartite for the product to be bipartite", bName(t, k))
		}
		fbs[t] = fb
		if t == k-1 {
			lastPart = bp
		}
	}
	fa, err := NewFactor(a)
	if err != nil {
		return nil, fmt.Errorf("core: factor A: %w", err)
	}
	if mode == ModeSelfLoopFactor && !a.IsBipartite() {
		return nil, fmt.Errorf("core: mode (A+I)⊗B requires a bipartite A: the Thm. 4 derivation needs diag(A³)=0 and A²∘A=0")
	}
	if strict {
		if !a.IsConnected() {
			return nil, fmt.Errorf("core: factor A is disconnected; Thm. %d requires connected factors (use NewRelaxed to waive)", mode+1)
		}
		for t, b := range bs {
			if !b.IsConnected() {
				return nil, fmt.Errorf("core: factor %s is disconnected; Thm. %d requires connected factors (use NewRelaxed to waive)", bName(t, k), mode+1)
			}
		}
		if mode == ModeNonBipartiteFactor && a.IsBipartite() {
			return nil, fmt.Errorf("core: factor A is bipartite; Assumption 1(i) requires a non-bipartite A or the product is disconnected (use ModeSelfLoopFactor or NewRelaxed)")
		}
	}
	sizes := make([]int, 0, k+1)
	sizes = append(sizes, a.N())
	for _, b := range bs {
		sizes = append(sizes, b.N())
	}
	rad, err := NewRadix(sizes...)
	if err != nil {
		return nil, err
	}
	mEdges := make([]int, 0, k+1)
	mEdges = append(mEdges, a.NumEdges())
	for _, b := range bs {
		mEdges = append(mEdges, b.NumEdges())
	}
	p := &Product{
		mode:   mode,
		a:      fa,
		bs:     fbs,
		rad:    rad,
		mEdges: mEdges,
		colorB: lastPart.Color,
		nuB:    len(lastPart.U),
		nwB:    len(lastPart.W),
		strict: strict,
	}
	if err := p.computeLayout(); err != nil {
		return nil, err
	}
	if err := p.computeGlobalSums(); err != nil {
		return nil, err
	}
	return p, nil
}

// computeLayout fixes the chain's closed-form edge count and shard row
// layout, guarding every step against int64/int overflow.
//
// Expanding the chain recursion, C_K is a sum of K+1 Kronecker terms:
//
//	term 0:      A ⊗ B₁ ⊗ … ⊗ B_K
//	term 1:      I_{n_A} ⊗ B₁ ⊗ … ⊗ B_K          (mode (ii) only)
//	term t >= 2: I_{N_{t-1}} ⊗ B_t ⊗ … ⊗ B_K      (N_{t-1} = |V_{C_{t-1}}|)
//
// Rows of term 0 are the A edges, each emitting 2^K·∏|E_{B_u}| product
// edges; rows of term t are the prefix vertices, each emitting
// |E_{B_t}|·∏_{u>t} 2|E_{B_u}| edges.
func (p *Product) computeLayout() error {
	k := len(p.bs)
	overflow := func(q string) error {
		return &OverflowError{Quantity: q, Detail: fmt.Sprintf("mode %v, factor sizes %v", p.mode, p.factorSizes())}
	}
	// suffix[t] = ∏_{u >= t} 2·|E_{B_u}|, the edge multiplicity of the
	// both-orientation levels below t.
	suffix := make([]int64, k+2)
	suffix[k+1] = 1
	for t := k; t >= 1; t-- {
		s, ok := mulInt64(2*int64(p.mEdges[t]), suffix[t+1])
		if !ok {
			return overflow("edge count")
		}
		suffix[t] = s
	}
	rows := make([]int64, k+1)
	per := make([]int64, k+1)
	rows[0] = int64(p.mEdges[0])
	per[0] = suffix[1]
	prefixN := int64(p.a.N()) // N_{t-1} while processing level t
	for t := 1; t <= k; t++ {
		v, ok := mulInt64(int64(p.mEdges[t]), suffix[t+1])
		if !ok {
			return overflow("edge count")
		}
		per[t] = v
		if t >= 2 || p.mode == ModeSelfLoopFactor {
			rows[t] = prefixN
		}
		prefixN *= int64(p.bs[t-1].N()) // bounded by rad.N(), cannot overflow
	}
	p.termOff = make([]int, k+2)
	p.termPer = per
	var totalRows, edges int64
	for t := 0; t <= k; t++ {
		var ok bool
		if totalRows, ok = addInt64(totalRows, rows[t]); !ok || totalRows > int64(maxInt) {
			return overflow("stream row count")
		}
		p.termOff[t+1] = int(totalRows)
		c, ok := mulInt64(rows[t], per[t])
		if !ok {
			return overflow("edge count")
		}
		if edges, ok = addInt64(edges, c); !ok {
			return overflow("edge count")
		}
	}
	p.nEdges = edges
	return nil
}

// computeGlobalSums folds the per-level vertex-statistic sums that make
// GlobalFourCycles sublinear: for each level the +I lift shifts the sums
// (Σd ↦ Σd + N, Σd² ↦ Σd² + 2Σd + N, Σw⁽²⁾ ↦ Σw⁽²⁾ + 2Σd + N,
// Σdiag⁴ ↦ Σdiag⁴ + 6Σd + N) and the ⊗B_t step multiplies them by the
// factor's own sums (Σ(x ⊗ y) = Σx·Σy).  Every sum is non-negative and
// every step is overflow-guarded.  Once the four sums fit, so does every
// per-vertex count, per-edge ◊ and Σ◊ = 4·□(C), since each is bounded
// by Σdiag(C⁴).
func (p *Product) computeGlobalSums() error {
	fits := true
	mul := func(a, b int64) int64 {
		r, ok := mulInt64(a, b)
		fits = fits && ok
		return r
	}
	add := func(a, b int64) int64 {
		r, ok := addInt64(a, b)
		fits = fits && ok
		return r
	}
	var sD, sD2, sW2, sD4 int64
	for i := 0; i < p.a.N(); i++ {
		d, w2, d4 := p.a.D[i], p.a.W2[i], p.a.diag4(i)
		if p.mode == ModeSelfLoopFactor {
			d4 = add(d4, 6*d+1)
			w2 = add(w2, 2*d+1)
			d++
		}
		sD = add(sD, d)
		sD2 = add(sD2, mul(d, d))
		sW2 = add(sW2, w2)
		sD4 = add(sD4, d4)
	}
	prefixN := int64(p.a.N())
	for t, f := range p.bs {
		if t > 0 {
			sD4 = add(sD4, add(mul(6, sD), prefixN))
			sW2 = add(sW2, add(mul(2, sD), prefixN))
			sD2 = add(sD2, add(mul(2, sD), prefixN))
			sD = add(sD, prefixN)
		}
		var bD, bD2, bW2, bD4 int64
		for x := 0; x < f.N(); x++ {
			bD = add(bD, f.D[x])
			bD2 = add(bD2, mul(f.D[x], f.D[x]))
			bW2 = add(bW2, f.W2[x])
			bD4 = add(bD4, f.diag4(x))
		}
		sD = mul(sD, bD)
		sD2 = mul(sD2, bD2)
		sW2 = mul(sW2, bW2)
		sD4 = mul(sD4, bD4)
		prefixN *= int64(f.N()) // bounded by rad.N(), cannot overflow
	}
	if !fits {
		return &OverflowError{Quantity: "4-cycle count", Detail: fmt.Sprintf("mode %v, factor sizes %v", p.mode, p.factorSizes())}
	}
	p.sumD, p.sumD2, p.sumW2, p.sumDiag4 = sD, sD2, sW2, sD4
	return nil
}

func (p *Product) factorSizes() []int {
	sizes := make([]int, 0, len(p.bs)+1)
	sizes = append(sizes, p.a.N())
	for _, f := range p.bs {
		sizes = append(sizes, f.N())
	}
	return sizes
}

func (p *Product) withParts(b *graph.Bipartite) (*Product, error) {
	last := p.bs[len(p.bs)-1]
	if len(b.Part.Color) != last.N() {
		return nil, fmt.Errorf("core: bipartition covers %d vertices, factor %s has %d", len(b.Part.Color), bName(len(p.bs)-1, len(p.bs)), last.N())
	}
	// The declared coloring must 2-color every edge of the last factor.
	valid := true
	b.EachEdge(func(u, v int) bool {
		if b.Part.Color[u] == b.Part.Color[v] {
			valid = false
			return false
		}
		return true
	})
	if !valid {
		return nil, fmt.Errorf("core: declared bipartition does not 2-color factor %s", bName(len(p.bs)-1, len(p.bs)))
	}
	p.colorB = b.Part.Color
	p.nuB = len(b.Part.U)
	p.nwB = len(b.Part.W)
	return p, nil
}

// Mode returns the construction mode.
func (p *Product) Mode() Mode { return p.mode }

// FactorA returns the A factor statistics.
func (p *Product) FactorA() *Factor { return p.a }

// FactorB returns the LAST right-factor statistics (B for a two-factor
// product, B_K for a chain).  The product inherits this factor's
// bipartition.
func (p *Product) FactorB() *Factor { return p.bs[len(p.bs)-1] }

// Factors returns the full factor list (A, B₁, …, B_K).
func (p *Product) Factors() []*Factor {
	out := make([]*Factor, 0, len(p.bs)+1)
	out = append(out, p.a)
	return append(out, p.bs...)
}

// Arity returns the number of factors in the chain (2 for the classic
// two-factor product).
func (p *Product) Arity() int { return len(p.bs) + 1 }

// Radix returns the mixed-radix vertex layout.
func (p *Product) Radix() Radix { return p.rad }

// N returns |V_C| = n_A · ∏ n_{B_t}.
func (p *Product) N() int { return p.rad.N() }

// PairOf maps a product vertex to its top-level coordinates: the prefix
// vertex (a C_{K-1} vertex, or an A vertex for K = 1) and the last-factor
// digit.  For two-factor products this is exactly the paper's α, β maps
// (0-based).  DigitsOf exposes the full mixed-radix tuple.
func (p *Product) PairOf(v int) (i, k int) {
	n := p.FactorB().N()
	return v / n, v % n
}

// IndexOf maps top-level coordinates to the product vertex (the γ map).
func (p *Product) IndexOf(i, k int) int { return i*p.FactorB().N() + k }

// DigitsOf returns the full mixed-radix digit tuple (i, k₁, …, k_K) of a
// product vertex.
func (p *Product) DigitsOf(v int) []int {
	return p.rad.AppendDecode(make([]int, 0, p.rad.K()), v)
}

// VertexOf is the inverse of DigitsOf.
func (p *Product) VertexOf(digits ...int) int { return p.rad.Encode(digits...) }

// NumEdges returns |E_C| in closed form; for K = 1:
//
//	mode (i):  2·|E_A|·|E_B|        (nnz(A)·nnz(B)/2)
//	mode (ii): (2·|E_A|+n_A)·|E_B|  (nnz(A+I)·nnz(B)/2)
//
// and for chains the recursion |E_{C_t}| = (2·|E_{C_{t-1}}|+N_{t-1})·|E_{B_t}|,
// precomputed (and overflow-checked) at construction.
func (p *Product) NumEdges() int64 { return p.nEdges }

// SideOf returns which part of C's bipartition vertex v belongs to.  The
// product inherits the last factor's bipartition: a vertex is in U_C iff
// its last digit is in U_{B_K}.
func (p *Product) SideOf(v int) graph.Side {
	return p.colorB[v%p.FactorB().N()]
}

// PartSizes returns |U_C| and |W_C|: (N/n_{B_K})·|U_{B_K}| and
// (N/n_{B_K})·|W_{B_K}|.
func (p *Product) PartSizes() (nu, nw int) {
	pre := p.rad.N() / p.FactorB().N()
	return pre * p.nuB, pre * p.nwB
}

// ConnectedByTheorem reports whether the product is guaranteed connected by
// Thm. 1 (mode i) or Thm. 2 (mode ii), applied at every chain level.  True
// exactly when the strict premises were verified at construction.
func (p *Product) ConnectedByTheorem() bool { return p.strict }

// HasEdge reports whether {v,w} is an edge of C, answered from the factors
// in O(K·log d) without materializing anything.  In the term expansion
// (see computeLayout) only the term anchored at the first differing digit
// level can contribute: a level-0 difference needs an A edge, a level-1
// difference needs the mode-(ii) I_{n_A} term, and a level-t difference
// (t >= 2) rides the I ⊗ B_t ⊗ … term; below the anchor every level must
// hold a B edge.
func (p *Product) HasEdge(v, w int) bool {
	if v < 0 || w < 0 || v >= p.rad.N() || w >= p.rad.N() {
		return false
	}
	k := len(p.bs)
	t := 0
	for t <= k && p.rad.Digit(v, t) == p.rad.Digit(w, t) {
		t++
	}
	if t > k { // v == w: products of loop-free factors have no self loops
		return false
	}
	switch {
	case t == 0:
		if !p.a.G.HasEdge(p.rad.Digit(v, 0), p.rad.Digit(w, 0)) {
			return false
		}
		t = 1
	case t == 1 && p.mode != ModeSelfLoopFactor:
		return false
	}
	for u := t; u <= k; u++ {
		if !p.bs[u-1].G.HasEdge(p.rad.Digit(v, u), p.rad.Digit(w, u)) {
			return false
		}
	}
	return true
}

// DegreeAt returns d_v in O(K) from the digit tuple: the M₀ degree of the
// leading digit, then per level a +1 lift (the +I) followed by the factor
// degree product; for K = 1 this is the paper's d_p = d_i·d_k (mode (i))
// or (d_i+1)·d_k (mode (ii)).
func (p *Product) DegreeAt(v int) int64 { return p.levelDegree(v, len(p.bs)) }

// levelDegree is DegreeAt in chain level C_t (C_0 = A): the degree of
// the level-t vertex whose digits lead product vertex v.
func (p *Product) levelDegree(v, t int) int64 {
	d := p.a.D[p.rad.Digit(v, 0)]
	lift := p.mode == ModeSelfLoopFactor
	for u := 1; u <= t; u++ {
		if lift {
			d++
		}
		d *= p.bs[u-1].D[p.rad.Digit(v, u)]
		lift = true
	}
	return d
}

// vertexStats folds (d, w⁽²⁾, diag(C⁴)) at one vertex across the chain in
// O(K): the +I lift maps (d, w2, d4) to (d+1, w2+2d+1, d4+6d+1) — the
// bipartite loop-free shift identities behind Thm. 4 — and each ⊗B_t step
// multiplies componentwise by the factor's values.
func (p *Product) vertexStats(v int) (d, w2, d4 int64) {
	i := p.rad.Digit(v, 0)
	d, w2, d4 = p.a.D[i], p.a.W2[i], p.a.diag4(i)
	lift := p.mode == ModeSelfLoopFactor
	for u, f := range p.bs {
		if lift {
			d4 += 6*d + 1
			w2 += 2*d + 1
			d++
		}
		x := p.rad.Digit(v, u+1)
		d *= f.D[x]
		w2 *= f.W2[x]
		d4 *= f.diag4(x)
		lift = true
	}
	return d, w2, d4
}

// Degrees returns the full degree vector d_C, folded level by level
// (d_M ⊗ d_{B_1}, lifted and crossed with each later factor).
func (p *Product) Degrees() []int64 {
	cur := p.degA()
	for u, f := range p.bs {
		if u > 0 {
			cur = grb.ShiftVec(cur, 1)
		}
		cur = grb.KronVec(cur, f.D)
	}
	return cur
}

// TwoWalksAt returns w⁽²⁾_v, the number of 2-hop walks leaving v; for
// K = 1 this is the paper's w⁽²⁾_i·w⁽²⁾_k (mode (i)) or
// (w⁽²⁾_i + 2d_i + 1)·w⁽²⁾_k (mode (ii)).
func (p *Product) TwoWalksAt(v int) int64 {
	_, w2, _ := p.vertexStats(v)
	return w2
}

// TwoWalks returns the full two-walk vector of C.
func (p *Product) TwoWalks() []int64 {
	dv := append([]int64(nil), p.a.D...)
	wv := append([]int64(nil), p.a.W2...)
	lift := p.mode == ModeSelfLoopFactor
	for _, f := range p.bs {
		if lift {
			for i := range wv {
				wv[i] += 2*dv[i] + 1
				dv[i]++
			}
		}
		wv = grb.KronVec(wv, f.W2)
		dv = grb.KronVec(dv, f.D)
		lift = true
	}
	return wv
}

// degA returns the degree vector of the effective root factor M₀
// (A or A+I).
func (p *Product) degA() []int64 {
	if p.mode == ModeSelfLoopFactor {
		return grb.ShiftVec(p.a.D, 1)
	}
	return p.a.D
}

// w2A returns ((M₀²)·1)_i for the effective root factor: (A+I)²·1 =
// (A² + 2A + I)·1 = w⁽²⁾ + 2d + 1 in mode (ii).
func (p *Product) w2A(i int) int64 {
	if p.mode == ModeSelfLoopFactor {
		return p.a.W2[i] + 2*p.a.D[i] + 1
	}
	return p.a.W2[i]
}

// Materialize builds the explicit product graph via the grb Kronecker
// kernel, level by level — O(|E_C|) time and memory — for validation and
// testing only; it is the one code path that stores intermediate levels.
// workers <= 0 selects GOMAXPROCS.
func (p *Product) Materialize(workers int) (*graph.Graph, error) {
	return p.MaterializeContext(context.Background(), workers)
}

// MaterializeContext is Materialize under a context: the Kronecker kernels
// run on the shared exec engine, so cancellation aborts the build promptly
// with ctx.Err().
func (p *Product) MaterializeContext(ctx context.Context, workers int) (*graph.Graph, error) {
	ma := p.a.G.Adjacency()
	if p.mode == ModeSelfLoopFactor {
		ma = p.a.G.WithFullSelfLoops().Adjacency()
	}
	cur, err := grb.KronParallelContext(ctx, ma, p.bs[0].G.Adjacency(), workers)
	if err != nil {
		return nil, err
	}
	for _, f := range p.bs[1:] {
		g, err := graph.FromAdjacency(cur)
		if err != nil {
			return nil, err
		}
		cur, err = grb.KronParallelContext(ctx, g.WithFullSelfLoops().Adjacency(), f.G.Adjacency(), workers)
		if err != nil {
			return nil, err
		}
	}
	return graph.FromAdjacency(cur)
}

// EachEdge streams every undirected edge {v,w} of C exactly once, in
// deterministic order, without materializing the product.  Each factor-edge
// pair ({i,j}, {k,l}) contributes two product edges (i,k)–(j,l) and
// (i,l)–(j,k) per level; self-loop rows contribute one orientation at
// their anchor level.  Iteration stops early if yield returns false.
func (p *Product) EachEdge(yield func(v, w int) bool) {
	p.run(p.whole(), nil, walker{yield: yield})
}

// String summarizes the product.
func (p *Product) String() string {
	nu, nw := p.PartSizes()
	return fmt.Sprintf("KroneckerProduct{mode=%v, factors=%d, n=%d (|U|=%d |W|=%d), m=%d}",
		p.mode, p.Arity(), p.N(), nu, nw, p.NumEdges())
}
