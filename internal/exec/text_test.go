package exec

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// refTSV and refNDJSON are the strconv renderers the kernel replaced,
// kept verbatim as its oracle.
func refTSV(dst []byte, edges []Edge) []byte {
	for _, e := range edges {
		dst = strconv.AppendInt(dst, int64(e.V), 10)
		dst = append(dst, '\t')
		dst = strconv.AppendInt(dst, int64(e.W), 10)
		dst = append(dst, '\n')
	}
	return dst
}

func refNDJSON(dst []byte, edges []Edge) []byte {
	for _, e := range edges {
		dst = append(dst, `{"v":`...)
		dst = strconv.AppendInt(dst, int64(e.V), 10)
		dst = append(dst, `,"w":`...)
		dst = strconv.AppendInt(dst, int64(e.W), 10)
		dst = append(dst, '}', '\n')
	}
	return dst
}

var textRenderers = []struct {
	name      string
	kernel    func([]byte, []Edge) []byte
	reference func([]byte, []Edge) []byte
}{
	{"tsv", AppendTSV, refTSV},
	{"ndjson", AppendNDJSON, refNDJSON},
}

// checkRender renders edges after a prefix of pre bytes into a buffer
// with spare bytes of capacity past it, and requires the reference's
// bytes, an untouched prefix, and no reallocation whenever spare covers
// the rendering.
func checkRender(t *testing.T, edges []Edge, pre, spare int) {
	t.Helper()
	for _, r := range textRenderers {
		want := r.reference(nil, edges)
		dst := make([]byte, pre, pre+spare)
		for i := range dst {
			dst[i] = byte('a' + i%26)
		}
		prefix := append([]byte(nil), dst...)
		got := r.kernel(dst, edges)
		if !bytes.Equal(got[:pre], prefix) || !bytes.Equal(got[pre:], want) {
			t.Fatalf("%s of %v (prefix %d, spare %d): got %q, want %q", r.name, edges, pre, spare, got[pre:], want)
		}
		if spare >= len(want) && &got[:1][0] != &dst[:1][0] {
			t.Fatalf("%s of %v (prefix %d, spare %d): reallocated though the spare capacity holds all %d bytes",
				r.name, edges, pre, spare, len(want))
		}
	}
}

// textBoundaryIDs are the ids where the kernel's cases meet: 0, every
// 10^k−1, 10^k and 10^k+1 up to 10^18, math.MaxInt64, and negative ids.
func textBoundaryIDs() []int {
	ids := []int{0, 1, math.MaxInt64, math.MaxInt64 - 1, -1, -9, -10, -99999999, -100000000, math.MinInt64, math.MinInt64 + 1}
	for p := 10; ; p *= 10 {
		ids = append(ids, p-1, p, p+1, -p)
		if p == 1e18 {
			return ids
		}
	}
}

// TestAppendTextBoundaries renders every pair of boundary ids, one edge
// at a time and as one batch, into exactly sized and into roomy buffers.
func TestAppendTextBoundaries(t *testing.T) {
	ids := textBoundaryIDs()
	var all []Edge
	for _, v := range ids {
		for _, w := range ids {
			e := []Edge{{V: v, W: w}}
			all = append(all, e[0])
			checkRender(t, e, 0, 0)
			checkRender(t, e, 3, len(refNDJSON(nil, e)))
			checkRender(t, e, 1, 1<<10)
		}
	}
	checkRender(t, all, 0, 0)
	checkRender(t, all, 5, len(refNDJSON(nil, all)))
	checkRender(t, all, 0, 1<<20)
}

// TestAppendTextRandom renders random ids of every width, in batches
// that straddle the switch from wide to exact-length stores.
func TestAppendTextRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	id := func() int {
		x := int(rng.Int63() >> rng.Intn(63))
		if rng.Intn(8) == 0 {
			x = -x
		}
		return x
	}
	for i := 0; i < 2000; i++ {
		edges := make([]Edge, 1+rng.Intn(64))
		for k := range edges {
			edges[k] = Edge{V: id(), W: id()}
		}
		exact := len(refTSV(nil, edges))
		checkRender(t, edges, rng.Intn(16), rng.Intn(2*exact+2*ndjsonLineMax))
		checkRender(t, edges, 0, exact)
	}
}

// FuzzAppendText checks both renderers against the strconv oracle on two
// arbitrary ids, after a prefix and with spare capacity from the input.
func FuzzAppendText(f *testing.F) {
	f.Add(int64(0), int64(1), uint8(0), uint16(0))
	f.Add(int64(99999999), int64(100000000), uint8(3), uint16(64))
	f.Add(int64(9999999999999999), int64(10000000000000000), uint8(1), uint16(60))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint8(7), uint16(200))
	f.Add(int64(-1), int64(4245279), uint8(0), uint16(28))
	f.Fuzz(func(t *testing.T, v, w int64, pre uint8, spare uint16) {
		if int64(int(v)) != v || int64(int(w)) != w {
			t.Skip("id wider than int")
		}
		e := Edge{V: int(v), W: int(w)}
		checkRender(t, []Edge{e}, int(pre), int(spare))
		checkRender(t, []Edge{e, {V: e.W, W: e.V}, e}, int(pre), int(spare))
	})
}
