package wire

import (
	"encoding/binary"
	"fmt"

	"kronbip/internal/exec"
)

// referenceDecode is the bin decoder as it stood before Decode replaced
// it (then serve.DecodeWire), kept verbatim as FuzzDecodeWire's oracle:
// one binary.Uvarint or binary.Varint call per integer and per-edge
// error plumbing.  Its start == -1 mode skipped the first frame's offset
// check; Decode dropped that mode, so the oracle is only asked about
// starts ≥ 0.
//
// It yields per edge, and its errors read "serve: bad wire frame: ..."
// where Decode's read "wire: bad frame: ...".

// WireFrameEdges is the name the reference body uses for FrameEdges.
const WireFrameEdges = FrameEdges

func referenceDecode(payload []byte, start int64, yield func(v, w int)) (edges, next int64, trailing int, err error) {
	next = start
	rest := payload
	var buf [WireFrameEdges]exec.Edge
	for len(rest) > 0 {
		frame := rest
		count, n, ok, err := wireUvarint(frame)
		if err != nil {
			return edges, next, len(rest), err
		}
		if !ok {
			return edges, next, len(rest), nil
		}
		frame = frame[n:]
		if count < 1 || count > WireFrameEdges {
			return edges, next, len(rest), fmt.Errorf("serve: bad wire frame: count %d out of range [1,%d]", count, WireFrameEdges)
		}
		fstart, n, ok, err := wireUvarint(frame)
		if err != nil {
			return edges, next, len(rest), err
		}
		if !ok {
			return edges, next, len(rest), nil
		}
		frame = frame[n:]
		if next >= 0 && int64(fstart) != next {
			return edges, next, len(rest), fmt.Errorf("serve: bad wire frame: starts at %d, expected %d", fstart, next)
		}
		// Decode the whole frame before yielding anything: a frame cut
		// off mid-edge contributes nothing, so the caller's "complete
		// prefix" is exactly the edges yielded.
		var v, w int64
		complete := true
		for i := uint64(0); i < count; i++ {
			var nv, nw int
			if i == 0 {
				var uv, uw uint64
				var okv, okw bool
				uv, nv, okv, err = wireUvarint(frame)
				if err == nil && okv {
					uw, nw, okw, err = wireUvarint(frame[nv:])
				}
				if err != nil {
					return edges, next, len(rest), err
				}
				if !okv || !okw {
					complete = false
					break
				}
				v, w = int64(uv), int64(uw)
			} else {
				var dv, dw int64
				var okv, okw bool
				dv, nv, okv, err = wireVarint(frame)
				if err == nil && okv {
					dw, nw, okw, err = wireVarint(frame[nv:])
				}
				if err != nil {
					return edges, next, len(rest), err
				}
				if !okv || !okw {
					complete = false
					break
				}
				v += dv
				w += dw
			}
			frame = frame[nv+nw:]
			if v < 0 || w < 0 {
				return edges, next, len(rest), fmt.Errorf("serve: bad wire frame: negative vertex (%d,%d)", v, w)
			}
			buf[i] = exec.Edge{V: int(v), W: int(w)}
		}
		if !complete {
			return edges, next, len(rest), nil
		}
		if yield != nil {
			for _, e := range buf[:count] {
				yield(e.V, e.W)
			}
		}
		edges += int64(count)
		next = int64(fstart) + int64(count)
		rest = frame
	}
	return edges, next, 0, nil
}

// wireUvarint reads one uvarint: ok=false means the buffer ran out
// (truncation), err means the encoding itself is invalid.
func wireUvarint(b []byte) (v uint64, n int, ok bool, err error) {
	v, n = binary.Uvarint(b)
	if n > 0 {
		return v, n, true, nil
	}
	if n == 0 {
		return 0, 0, false, nil
	}
	return 0, 0, false, fmt.Errorf("serve: bad wire frame: uvarint overflow")
}

// wireVarint is wireUvarint for zigzag varints.
func wireVarint(b []byte) (v int64, n int, ok bool, err error) {
	v, n = binary.Varint(b)
	if n > 0 {
		return v, n, true, nil
	}
	if n == 0 {
		return 0, 0, false, nil
	}
	return 0, 0, false, fmt.Errorf("serve: bad wire frame: varint overflow")
}
