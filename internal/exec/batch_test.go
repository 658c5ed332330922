package exec

import (
	"bytes"
	"strings"
	"testing"
)

func batchOf(n, base int) []Edge {
	b := make([]Edge, n)
	for i := range b {
		b[i] = Edge{base + i, base + i + 1}
	}
	return b
}

func TestEdgeBufPool(t *testing.T) {
	b := GetEdgeBuf()
	if len(*b) != 0 || cap(*b) < BatchLen {
		t.Fatalf("fresh buffer len=%d cap=%d, want empty with cap >= %d", len(*b), cap(*b), BatchLen)
	}
	*b = append(*b, Edge{1, 2})
	PutEdgeBuf(b)
	// Nil and undersized buffers must be rejected, not pooled.
	PutEdgeBuf(nil)
	small := make([]Edge, 0, 4)
	PutEdgeBuf(&small)
	if got := GetEdgeBuf(); len(*got) != 0 || cap(*got) < BatchLen {
		t.Fatalf("recycled buffer len=%d cap=%d, want empty with cap >= %d", len(*got), cap(*got), BatchLen)
	}
}

func TestCountingSinkEdgeBatch(t *testing.T) {
	var c CountingSink
	if err := c.EdgeBatch(batchOf(7, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.EdgeBatch(batchOf(1, 1)); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 8 {
		t.Fatalf("count = %d, want 8", c.Count())
	}
	// Finish on a non-flusher is a no-op.
	if err := Finish(&c); err != nil {
		t.Fatal(err)
	}
}

func TestTSVSinkEdgeBatchMatchesPerEdge(t *testing.T) {
	batch := batchOf(2000, 100000) // more than one RenderChunk
	var viaBatch, viaEdge bytes.Buffer
	tb := NewTSVSink(&viaBatch)
	if err := tb.EdgeBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	te := NewTSVSink(&viaEdge)
	for i := range batch {
		if err := te.EdgeBatch(batch[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := te.Flush(); err != nil {
		t.Fatal(err)
	}
	if viaBatch.String() != viaEdge.String() {
		t.Fatal("batch and per-edge TSV renderings differ")
	}
	if lines := strings.Count(viaBatch.String(), "\n"); lines != len(batch) {
		t.Fatalf("%d lines, want %d", lines, len(batch))
	}
}
