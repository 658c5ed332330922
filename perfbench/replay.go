package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kronbip/internal/audit"
	"kronbip/internal/core"
	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/serve"
)

// The traced run replays each op's layers in this process, through
// their public functions, so every layer gets a busy time of its own.
// Each call is timed and recorded as a span under a per-replay root.

// replayed is one replay's layer times; zero for layers the op does not
// pass through.
type replayed struct {
	edges                                    int64
	specBuild, walk, countPass, blockWalk    time.Duration
	submit, stream, lease, decode, auditTime time.Duration
	bytes                                    int64
	auditChecks                              int
}

// replayer holds the in-process server the replays go through, set up
// the way `kronbip serve` sets itself up: defaults, obs enabled.
type replayer struct {
	tr    *tracer
	srv   *serve.Server
	h     http.Handler
	edges []exec.Edge // decode buffer
}

func newReplayer(tr *tracer) *replayer {
	obs.SetEnabled(true)
	srv := serve.New(serve.Config{})
	return &replayer{tr: tr, srv: srv, h: srv.Handler()}
}

func (r *replayer) close() {
	_ = r.srv.Shutdown(5 * time.Second)
	obs.SetEnabled(false)
}

// timed runs f and records it as span name under root.
func (r *replayer) timed(name string, op, root int, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	r.tr.add(name, op, root, t0, t1)
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", name, err)
	}
	return t1.Sub(t0), nil
}

// respWriter is an http.ResponseWriter and http.Flusher that counts
// (and, with keep, captures) the body.  Trailers land in its header map.
type respWriter struct {
	hdr  http.Header
	code int
	n    int64
	keep bool
	buf  bytes.Buffer
}

func newRespWriter(keep bool) *respWriter { return &respWriter{hdr: http.Header{}, keep: keep} }

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += int64(len(p))
	if w.keep {
		w.buf.Write(p)
	}
	return len(p), nil
}
func (w *respWriter) Flush() {}

// complete checks a streamed response's status and trailers.
func (w *respWriter) complete(edges int64) error {
	if w.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", w.code, bytes.TrimSpace(w.buf.Bytes()))
	}
	if st := w.hdr.Get(serve.TrailerStatus); st != "complete" {
		return fmt.Errorf("trailer status %q", st)
	}
	if got := w.hdr.Get(serve.TrailerEdges); got != strconv.FormatInt(edges, 10) {
		return fmt.Errorf("trailer edges %q, want %d", got, edges)
	}
	return nil
}

// call serves one request in process.
func (r *replayer) call(w http.ResponseWriter, method, target, body string) {
	r.h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
}

// decode decodes one bin payload into r.edges.
func (r *replayer) decode(payload []byte) error {
	r.edges = r.edges[:0]
	_, _, trailing, err := serve.DecodeWire(payload, 0, func(v, w int) {
		r.edges = append(r.edges, exec.Edge{V: v, W: w})
	})
	if err == nil && trailing != 0 {
		err = fmt.Errorf("%d trailing bytes", trailing)
	}
	return err
}

// stream replays a stream op: spec build, canonical walk, the job's
// count pass, submit and stream through the handler, and (bin) decode.
func (r *replayer) stream(ctx context.Context, pr prepared, format string, op int) (replayed, error) {
	root := r.tr.begin("replay", op, 0)
	defer r.tr.end(root)
	var rp replayed
	var p *core.Product
	var err error
	if rp.specBuild, err = r.timed("spec.build", op, root, func() (e error) { p, e = pr.sp.Build(); return e }); err != nil {
		return rp, err
	}
	rp.edges = p.NumEdges()
	if rp.walk, err = r.timed("core.walk", op, root, func() error {
		var n int64
		if err := p.EachEdgeRangeBatchContext(ctx, 0, rp.edges, func(b []exec.Edge) bool { n += int64(len(b)); return true }); err != nil {
			return err
		}
		return wantCount(n, rp.edges)
	}); err != nil {
		return rp, err
	}
	if rp.countPass, err = r.timed("core.count_pass", op, root, func() error {
		var cnt exec.CountingSink
		if err := p.StreamEdgesParallelContext(ctx, runtime.GOMAXPROCS(0), func(int) exec.Sink { return &cnt }); err != nil {
			return err
		}
		return wantCount(cnt.Count(), rp.edges)
	}); err != nil {
		return rp, err
	}

	var st serve.JobStatus
	if rp.submit, err = r.timed("serve.submit", op, root, func() error {
		w := newRespWriter(true)
		r.call(w, http.MethodPost, "/v1/jobs", submitBody(pr.sp))
		if w.code != http.StatusAccepted {
			return fmt.Errorf("status %d", w.code)
		}
		return json.Unmarshal(w.buf.Bytes(), &st)
	}); err != nil {
		return rp, err
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			return rp, fmt.Errorf("replay job %s", st.State)
		}
		time.Sleep(time.Millisecond)
		w := newRespWriter(true)
		r.call(w, http.MethodGet, "/v1/jobs/"+st.ID, "")
		if err := json.Unmarshal(w.buf.Bytes(), &st); err != nil {
			return rp, err
		}
	}

	target := "/v1/jobs/" + st.ID + "/edges?format=" + format
	if rp.stream, err = r.timed("serve.stream", op, root, func() error {
		w := newRespWriter(false)
		r.call(w, http.MethodGet, target, "")
		rp.bytes = w.n
		return w.complete(rp.edges)
	}); err != nil {
		return rp, err
	}
	if format != "bin" {
		return rp, nil
	}
	w := newRespWriter(true)
	w.buf.Grow(int(rp.bytes))
	r.call(w, http.MethodGet, target, "")
	if err := w.complete(rp.edges); err != nil {
		return rp, err
	}
	rp.decode, err = r.timed("serve.decode", op, root, func() error {
		if err := r.decode(w.buf.Bytes()); err != nil {
			return err
		}
		return wantCount(int64(len(r.edges)), rp.edges)
	})
	return rp, err
}

// distgen replays a distgen op on its rows × cols grid: spec build, the
// core block walks, one lease per block through the handler, decode of
// every lease payload, and the audit fed the decoded edges.
func (r *replayer) distgen(ctx context.Context, pr prepared, rows, cols, op int) (replayed, error) {
	root := r.tr.begin("replay", op, 0)
	defer r.tr.end(root)
	var rp replayed
	var p *core.Product
	var err error
	if rp.specBuild, err = r.timed("spec.build", op, root, func() (e error) { p, e = pr.sp.Build(); return e }); err != nil {
		return rp, err
	}
	rp.edges = p.NumEdges()
	type block struct {
		row, col int
		want     int64
		payload  []byte
	}
	var blocks []block
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			want, err := p.BlockEdgeCount(row, rows, col, cols)
			if err != nil {
				return rp, err
			}
			blocks = append(blocks, block{row: row, col: col, want: want})
		}
	}
	if rp.blockWalk, err = r.timed("core.block_walk", op, root, func() error {
		var n int64
		for _, b := range blocks {
			if err := p.EachEdgeBlockBatchContext(ctx, b.row, rows, b.col, cols, func(e []exec.Edge) bool { n += int64(len(e)); return true }); err != nil {
				return err
			}
		}
		return wantCount(n, rp.edges)
	}); err != nil {
		return rp, err
	}
	if rp.lease, err = r.timed("serve.lease", op, root, func() error {
		for i, b := range blocks {
			w := newRespWriter(true)
			r.call(w, http.MethodPost, "/v1/leases", fmt.Sprintf(
				`{"factors":%s,"mode":%q,"seed":%d,"row":%d,"rows":%d,"col":%d,"cols":%d,"format":"bin"}`,
				jsonStrings(pr.sp.Factors), pr.sp.Mode, pr.sp.Seed, b.row, rows, b.col, cols))
			if err := w.complete(b.want); err != nil {
				return fmt.Errorf("block (%d,%d): %w", b.row, b.col, err)
			}
			blocks[i].payload = w.buf.Bytes()
			rp.bytes += w.n
		}
		return nil
	}); err != nil {
		return rp, err
	}
	var aud *audit.Auditor
	if rp.auditTime, err = r.timed("audit", op, root, func() error {
		aud = audit.New(p, audit.Options{})
		return nil
	}); err != nil {
		return rp, err
	}
	for _, b := range blocks {
		d, err := r.timed("serve.decode", op, root, func() error {
			if err := r.decode(b.payload); err != nil {
				return err
			}
			return wantCount(int64(len(r.edges)), b.want)
		})
		if err != nil {
			return rp, err
		}
		rp.decode += d
		d, err = r.timed("audit", op, root, func() error {
			child := aud.Stream().ForShard()
			bs := child.(interface{ EdgeBatch([]exec.Edge) error })
			for lo := 0; lo < len(r.edges); lo += exec.BatchLen {
				if err := bs.EdgeBatch(r.edges[lo:min(lo+exec.BatchLen, len(r.edges))]); err != nil {
					return err
				}
			}
			return exec.Finish(child)
		})
		if err != nil {
			return rp, err
		}
		rp.auditTime += d
	}
	d, err := r.timed("audit", op, root, func() error {
		report := aud.Finalize()
		rp.auditChecks = report.Checks
		return report.Err()
	})
	rp.auditTime += d
	return rp, err
}

func wantCount(got, want int64) error {
	if got != want {
		return fmt.Errorf("%d edges, closed form %d", got, want)
	}
	return nil
}
