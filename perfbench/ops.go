package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kronbip/internal/core"
	"kronbip/internal/distgen"
	"kronbip/internal/exec"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// workload is one traffic mix: which spec each op generates, through
// which path, against how many replicas.  BENCHMARK.json records why
// each was chosen.
type workload struct {
	name     string
	replicas int
	format   string   // stream codec ("bin" or "ndjson")
	factors  []string // chain levels of the op's spec
	distgen  bool     // op is one distgen.Run instead of submit+stream
	warmups  int      // warm-up ops that end each setup
}

var workloads = []workload{
	{
		name: "chain-bin", replicas: 1, format: "bin", warmups: 3,
		factors: []string{"sf48x96x240", "crown4"},
	},
	{
		name: "table1-ndjson", replicas: 1, format: "ndjson", warmups: 3,
		factors: []string{"unicode"},
	},
	{
		name: "distgen-audit", replicas: 2, format: "bin", distgen: true, warmups: 2,
		factors: []string{"unicode"},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix64 derives independent seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed namespaces: warm-up, measured and self-check ops never share a
// spec, so every stream op meets a cold product cache.
const (
	nsWarm = iota + 1
	nsMeasured
	nsTraced
	nsSelfCheck
	nsFill
)

// cacheFill is the replica's product-cache capacity (serve's default
// Config.CacheSize): that many distinct specs fill it.
const cacheFill = 128

// fillCache puts cacheFill distinct specs of the workload's shape into
// the replica's product cache through GET /v1/truth, which builds and
// caches the product and answers from closed forms.
func (b *bench) fillCache(ctx context.Context) error {
	for i := 0; i < cacheFill; i++ {
		sp := b.opSpec(nsFill, i)
		q := url.Values{"factor": sp.Factors, "mode": {sp.Mode}, "seed": {strconv.FormatInt(sp.Seed, 10)}}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.fl[0].url+"/v1/truth?"+q.Encode(), nil)
		if err != nil {
			return err
		}
		resp, err := b.client.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cache fill: /v1/truth answered %d", resp.StatusCode)
		}
	}
	return nil
}

// opSpec is the spec of op i in namespace ns.  Stream workloads get a
// fresh seed per op; distgen-audit repeats the workload seed, so its
// replicas' caches stay warm.
func (b *bench) opSpec(ns, i int) spec.Spec {
	seed := b.seed
	if !b.wl.distgen {
		seed = int64(splitmix64(uint64(b.seed)^uint64(ns)<<56^uint64(i)) >> 2)
	}
	return spec.Spec{Factors: b.wl.factors, Mode: spec.ModeSelfLoop, Seed: seed}
}

// bench is one benchmark run's state.
type bench struct {
	wl     workload
	seed   int64
	client *http.Client // one keep-alive connection per replica
	rc     *receiver
	fl     fleet
	tr     *tracer // nil outside the traced phase

	// distgen-audit: the reference merged-output digest, established by
	// the first warm-up op and checked block by block against core.
	merged    uint64
	hasMerged bool
	leases    atomic.Int64 // lease requests issued during the current op
	curOp     int          // op id and root span the lease spans attach to
	curRoot   int

	problems []string // verification failures outside any op
}

// prepared is an op's input plus its reference, computed before the op
// is timed.
type prepared struct {
	sp   spec.Spec
	p    *core.Product
	want streamWant
}

func (b *bench) prepare(ns, i int) (prepared, error) {
	sp := b.opSpec(ns, i)
	p, err := sp.Build()
	if err != nil {
		return prepared{}, err
	}
	pr := prepared{sp: sp, p: p}
	if !b.wl.distgen {
		d, err := refDigest(p, 0, p.NumEdges())
		if err != nil {
			return prepared{}, err
		}
		pr.want = streamWant{format: b.wl.format, edges: p.NumEdges(), total: p.NumEdges(), digest: d}
	}
	return pr, nil
}

// opResult is one op's outcome.
type opResult struct {
	edges   int64         // verified edges (0 when the op failed)
	lat     time.Duration // submit → last edge verified; one Run for distgen
	cpu     time.Duration // this process's CPU during the op
	err     error
	dg      *distgen.Result
	leases  int64         // distgen lease requests issued
	writeNs time.Duration // distgen time inside the merge writer
}

// runOp executes and verifies one op.  The op id keys its spans.
func (b *bench) runOp(ctx context.Context, op int, pr prepared, capture bool) opResult {
	cpu0 := selfCPU()
	t0 := time.Now()
	root := b.tr.begin("op", op, 0)
	var r opResult
	if b.wl.distgen {
		r = b.distgenOp(ctx, op, root, pr, capture)
	} else {
		r.err = b.streamOp(ctx, op, root, pr)
		if r.err == nil {
			r.edges = pr.want.edges
		}
	}
	b.tr.end(root)
	r.lat = time.Since(t0)
	r.cpu = selfCPU() - cpu0
	return r
}

// streamOp submits a job for pr.sp, waits for it to finish, streams its
// edges and verifies them.
func (b *bench) streamOp(ctx context.Context, op, root int, pr prepared) error {
	base := b.fl[0].url
	sid := b.tr.begin("client.submit", op, root)
	st, code, err := b.jobCall(ctx, http.MethodPost, base+"/v1/jobs", submitBody(pr.sp))
	b.tr.end(sid)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", code)
	}
	if st.NumEdges != pr.want.total {
		return fmt.Errorf("submit: num_edges %d, closed form %d", st.NumEdges, pr.want.total)
	}

	sid = b.tr.begin("client.job_wait", op, root)
	st, err = b.waitJob(ctx, base, st)
	b.tr.end(sid)
	if err != nil {
		return err
	}
	if st.EdgesStreamed != st.NumEdges {
		return fmt.Errorf("job %s done with edges_streamed %d of %d", st.ID, st.EdgesStreamed, st.NumEdges)
	}

	sid = b.tr.begin("client.ttfb", op, root)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/jobs/"+st.ID+"/edges?format="+pr.want.format, nil)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	b.tr.end(sid)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sid = b.tr.begin("client.body", op, root)
	err = checkStream(resp, b.rc, pr.want, b.tr, op, sid)
	b.tr.end(sid)
	return err
}

// submitBody is the POST /v1/jobs request for sp.
func submitBody(sp spec.Spec) string {
	return fmt.Sprintf(`{"factors":%s,"mode":%q,"seed":%d}`, jsonStrings(sp.Factors), sp.Mode, sp.Seed)
}

// waitJob polls a submitted job every millisecond until it is done.
func (b *bench) waitJob(ctx context.Context, base string, st serve.JobStatus) (serve.JobStatus, error) {
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
		var code int
		var err error
		if st, code, err = b.jobCall(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID, ""); err == nil && code != http.StatusOK {
			err = fmt.Errorf("job status: %d", code)
		}
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// jobCall makes one JSON job request and decodes the job status.
func (b *bench) jobCall(ctx context.Context, method, url, body string) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, &st); err != nil {
			return st, resp.StatusCode, fmt.Errorf("job status: %w", err)
		}
	}
	return st, resp.StatusCode, nil
}

func jsonStrings(ss []string) string {
	b, _ := json.Marshal(ss) // []string always marshals
	return string(b)
}

// mergeWriter is distgen's output: it digests the merged bytes and,
// for the reference op, keeps each block's payload (the coordinator
// writes one block per Write call, in (row, col) order).
type mergeWriter struct {
	b       *bench
	op, par int
	h       hash.Hash64
	blocks  [][]byte // kept only when capturing
	capture bool
	inside  time.Duration
}

func (m *mergeWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	sid := m.b.tr.begin("distgen.merge_write", m.op, m.par)
	vid := m.b.tr.begin("client.verify", m.op, sid)
	m.h.Write(p) // hash.Hash never errors
	if m.capture {
		m.blocks = append(m.blocks, append([]byte(nil), p...))
	}
	m.b.tr.end(vid)
	m.b.tr.end(sid)
	m.inside += time.Since(t0)
	return len(p), nil
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// distgenOp runs one audited bin distgen.Run over the fleet and checks
// its result: the closed-form edge total, a clean audit, and a merged
// output identical to the reference op's.  With capture it establishes
// that reference, decoding every block against a core block walk.
func (b *bench) distgenOp(ctx context.Context, op, root int, pr prepared, capture bool) opResult {
	out := &mergeWriter{b: b, op: op, par: root, h: crc64.New(crcTable), capture: capture}
	b.leases.Store(0)
	b.curOp, b.curRoot = op, root
	sid := b.tr.begin("distgen.run", op, root)
	res, err := distgen.Run(ctx, pr.sp, out, distgen.Options{
		Workers: b.fl.urls(),
		Format:  "bin",
		Audit:   true,
		Client:  b.client,
	})
	b.tr.end(sid)
	r := opResult{dg: res, leases: b.leases.Load(), writeNs: out.inside}
	switch {
	case err != nil:
		r.err = fmt.Errorf("distgen: %w", err)
	case res.Edges != pr.p.NumEdges():
		r.err = fmt.Errorf("distgen: merged %d edges, closed form %d", res.Edges, pr.p.NumEdges())
	case res.AuditViolations != 0 || res.AuditChecks == 0:
		r.err = fmt.Errorf("distgen: audit checks=%d violations=%d", res.AuditChecks, res.AuditViolations)
	case capture:
		if r.err = checkBlocks(pr.p, res.Rows, res.Cols, out.blocks); r.err == nil {
			b.merged, b.hasMerged = out.h.Sum64(), true
		}
	case !b.hasMerged:
		r.err = errors.New("distgen: no verified reference output to compare with")
	case out.h.Sum64() != b.merged:
		r.err = errors.New("distgen: merged output differs from the verified reference")
	}
	if r.err == nil {
		r.edges = res.Edges
	}
	return r
}

// checkBlocks decodes each merged block payload and compares it edge by
// edge with the core block walk of the same block.
func checkBlocks(p *core.Product, rows, cols int, blocks [][]byte) error {
	rc := newReceiver()
	next := 0
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			want, err := p.BlockEdgeCount(row, rows, col, cols)
			if err != nil {
				return err
			}
			if want == 0 {
				continue // the coordinator writes nothing for an empty block
			}
			if next >= len(blocks) {
				return fmt.Errorf("block (%d,%d): missing from merged output", row, col)
			}
			h := digestSeed
			err = p.EachEdgeBlockBatchContext(context.Background(), row, rows, col, cols, func(e []exec.Edge) bool {
				h = digestEdges(h, e)
				return true
			})
			if err != nil {
				return err
			}
			res, err := rc.consume(bytes.NewReader(blocks[next]), "bin", 0, nil, 0, 0)
			if err != nil {
				return fmt.Errorf("block (%d,%d): %w", row, col, err)
			}
			if res.edges != want || res.digest != h {
				return fmt.Errorf("block (%d,%d): decoded %d edges that differ from the core block walk of %d", row, col, res.edges, want)
			}
			next++
		}
	}
	if next != len(blocks) {
		return fmt.Errorf("merged output has %d blocks, plan has %d", len(blocks), next)
	}
	return nil
}

// leaseTimer is the distgen client's transport in the traced phase: it
// records one span per lease, from request to body EOF.
type leaseTimer struct {
	b    *bench
	next http.RoundTripper
}

func (t *leaseTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/v1/leases") {
		return t.next.RoundTrip(req)
	}
	t.b.leases.Add(1)
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.b.tr.add("distgen.lease", t.b.curOp, t.b.curRoot, start, time.Now())
		return nil, err
	}
	resp.Body = &eofTimer{ReadCloser: resp.Body, done: func() {
		t.b.tr.add("distgen.lease", t.b.curOp, t.b.curRoot, start, time.Now())
	}}
	return resp, nil
}

// eofTimer calls done once, at body EOF or Close, whichever is first.
type eofTimer struct {
	io.ReadCloser
	done  func()
	fired bool
}

func (e *eofTimer) Read(p []byte) (int, error) {
	n, err := e.ReadCloser.Read(p)
	if err != nil && !e.fired {
		e.fired = true
		e.done()
	}
	return n, err
}

func (e *eofTimer) Close() error {
	if !e.fired {
		e.fired = true
		e.done()
	}
	return e.ReadCloser.Close()
}

// countingTransport counts lease requests in the untraced phases, so
// the useful-lease ratio is known without timing anything.
type countingTransport struct {
	b    *bench
	next http.RoundTripper
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/v1/leases") {
		t.b.leases.Add(1)
	}
	return t.next.RoundTrip(req)
}

// selfCheck proves the verifier rejects damaged payloads: it captures a
// short ranged stream in each codec from a live replica, checks that the
// clean capture passes, and that a flipped byte, a dropped frame and a
// truncated tail each fail.
func (b *bench) selfCheck(ctx context.Context) error {
	const limit = 5*serve.WireFrameEdges + 100
	sp := b.opSpec(nsSelfCheck, 0)
	p, err := sp.Build()
	if err != nil {
		return err
	}
	d, err := refDigest(p, 0, limit)
	if err != nil {
		return err
	}
	base := b.fl[0].url
	st, code, err := b.jobCall(ctx, http.MethodPost, base+"/v1/jobs", submitBody(sp))
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("self-check submit: status %d: %v", code, err)
	}
	if st, err = b.waitJob(ctx, base, st); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	for _, format := range []string{"bin", "ndjson"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/v1/jobs/"+st.ID+"/edges?format="+format+"&limit="+strconv.Itoa(limit), nil)
		if err != nil {
			return err
		}
		resp, err := b.client.Do(req)
		if err != nil {
			return err
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		want := streamWant{format: format, edges: limit, total: p.NumEdges(), digest: d}
		check := func(payload []byte) error {
			res, err := b.rc.consume(bytes.NewReader(payload), format, 0, nil, 0, 0)
			if err != nil {
				return err
			}
			return checkBody(res, resp.Trailer, want)
		}
		if err := check(payload); err != nil {
			return fmt.Errorf("self-check: clean %s capture rejected: %w", format, err)
		}
		bad, err := corruptions(payload, format)
		if err != nil {
			return err
		}
		for name, c := range bad {
			if check(c) == nil {
				return fmt.Errorf("self-check: %s %s payload was accepted", name, format)
			}
		}
	}
	return nil
}
