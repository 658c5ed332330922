package audit

import (
	"fmt"

	"kronbip/internal/core"
)

// spotCheckVertices brute-forces s_v at a deterministic stride-sample
// of product vertices and compares against the Thm. 3/4 closed form.
// The brute force is assembled from raw factor adjacency lists only —
// it never touches the derived D/W2/S/Sq statistics the closed form is
// built from, so agreement really is two independent routes meeting.
func spotCheckVertices(p *core.Product, count int, budget int64, r *Report) {
	n := p.N()
	if n == 0 {
		return
	}
	if count > n {
		count = n
	}
	checked, skipped := 0, 0
	bf := newBruteForce(p)
	var firstBad string
	ok := true
	for j := 0; j < count; j++ {
		// Stride sampling: deterministic, spread across both factor
		// coordinates (vertex order is i·n_B + k, so a stride of ~n/count
		// walks i and k together).
		v := int(int64(j) * int64(n) / int64(count))
		want := p.VertexFourCyclesAt(v)
		got, inBudget := bf.fourCyclesAt(v, budget)
		if !inBudget {
			skipped++
			continue
		}
		checked++
		mSpot.Inc()
		if got != want {
			ok = false
			if firstBad == "" {
				firstBad = fmt.Sprintf("vertex %d: Thm. 3/4 says s_v=%d, brute force counts %d", v, want, got)
			}
		}
	}
	if firstBad == "" {
		firstBad = fmt.Sprintf("checked=%d skipped=%d (over budget)", checked, skipped)
	}
	r.record("spot.vertex_cycles", ok, firstBad)
}

// bruteForceFourCyclesAt counts the 4-cycles through product vertex v
// directly: enumerate v's product neighborhood from the factor
// adjacency lists, tally 2-paths v–a–w per opposite corner w, and sum
// C(paths_w, 2).  Work is exactly the number of 2-walks leaving v, so
// the TwoWalksAt closed form prices the call before it runs; vertices
// over budget report inBudget = false.
func bruteForceFourCyclesAt(p *core.Product, v int, budget int64) (count int64, inBudget bool) {
	return newBruteForce(p).fourCyclesAt(v, budget)
}

// bruteForce is bruteForceFourCyclesAt's state, reused across vertices:
// the factor list, one path counter, and one neighbour buffer per chain
// level for v's neighbourhood and another for each neighbour's, so a
// warm count allocates nothing.
type bruteForce struct {
	p     *core.Product
	fs    []*core.Factor
	paths map[int]int64
	near  [][]int // near[t]: the last N_{C_t} asked for v's neighbourhood
	far   [][]int // the same for a neighbour's
}

func newBruteForce(p *core.Product) *bruteForce {
	fs := p.Factors()
	return &bruteForce{p: p, fs: fs, paths: map[int]int64{}, near: make([][]int, len(fs)), far: make([][]int, len(fs))}
}

// fourCyclesAt is bruteForceFourCyclesAt on b's buffers.
func (b *bruteForce) fourCyclesAt(v int, budget int64) (count int64, inBudget bool) {
	if b.p.TwoWalksAt(v) > budget {
		return 0, false
	}
	clear(b.paths)
	k := len(b.fs) - 1
	for _, a := range b.neighbors(b.near, k, v) {
		for _, w := range b.neighbors(b.far, k, a) {
			if w != v {
				b.paths[w]++
			}
		}
	}
	for _, c := range b.paths {
		count += c * (c - 1) / 2
	}
	return count, true
}

// neighbors enumerates N_{C_t}(v) for the length-t prefix chain
// C_t = M₀ ⊗ B_1 ⊗ … ⊗ B_t (t ≥ 1), with vertices numbered in that
// prefix's own mixed radix, straight from the factor adjacency lists,
// one chain level at a time: for v = (p, k) with p a C_{t-1} vertex
// and k a B_t digit,
//
//	N_{C_t}(p,k) = N_{M_t}(p) × N_{B_t}(k),
//
// where M_1 = A (mode i) or A+I (mode ii), and M_t = C_{t-1}+I for
// t ≥ 2, so the prefix neighborhood is N_{C_{t-1}}(p) ∪ {p}.  Level t's
// list goes into bufs[t], and level t-1's, one longer for p, into
// bufs[t-1]; the result is valid until the next call on bufs.
func (b *bruteForce) neighbors(bufs [][]int, t, v int) []int {
	f := b.fs[t]
	pv, k := v/f.N(), v%f.N()
	var jp []int
	switch {
	case t > 1:
		jp = append(b.neighbors(bufs, t-1, pv), pv)
		bufs[t-1] = jp
	case b.p.Mode() == core.ModeSelfLoopFactor:
		jp = append(append(bufs[0][:0], b.fs[0].G.Neighbors(pv)...), pv)
		bufs[0] = jp
	default:
		jp = b.fs[0].G.Neighbors(pv)
	}
	lb := f.G.Neighbors(k)
	out := bufs[t][:0]
	for _, j := range jp {
		for _, l := range lb {
			out = append(out, j*f.N()+l)
		}
	}
	bufs[t] = out
	return out
}
