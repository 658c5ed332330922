package exec

import "sync/atomic"

// Sink consumes a stream of product edges a batch at a time.  The slice
// is owned by the producer and is reused after EdgeBatch returns — an
// implementation that needs the edges later must copy them.  A non-nil
// error aborts the stream feeding the sink, and implementations are
// used from one goroutine at a time unless documented otherwise (see
// CountingSink).
type Sink interface {
	EdgeBatch(edges []Edge) error
}

// Flusher is implemented by sinks that buffer; Finish calls it when a
// stream completes normally.
type Flusher interface {
	Flush() error
}

// Finish flushes s if it buffers.  Call it exactly once per sink after the
// last EdgeBatch of a successful stream; aborted streams may skip it,
// leaving buffered edges undelivered by design.
func Finish(s Sink) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// CountingSink counts edges atomically; safe for concurrent writers, so a
// single CountingSink can tally across every shard of a parallel stream.
type CountingSink struct {
	n atomic.Int64
}

// EdgeBatch counts the whole batch with one atomic add.
func (c *CountingSink) EdgeBatch(edges []Edge) error {
	c.n.Add(int64(len(edges)))
	return nil
}

// Count returns the number of edges seen so far.
func (c *CountingSink) Count() int64 { return c.n.Load() }

// MultiSink hands each batch to every member in order, stopping at the
// first error; its Flush flushes every member.
type MultiSink []Sink

// EdgeBatch delivers the batch to each member.
func (m MultiSink) EdgeBatch(edges []Edge) error {
	for _, s := range m {
		if err := s.EdgeBatch(edges); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes every member that buffers.
func (m MultiSink) Flush() error {
	for _, s := range m {
		if err := Finish(s); err != nil {
			return err
		}
	}
	return nil
}
