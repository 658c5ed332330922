package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// opSpans sums one traced op's client spans.
type opSpans struct {
	root                               span
	submit, wait, ttfb, body, bodySelf time.Duration
	verify                             time.Duration
}

// perLayer computes the per-layer metrics from the untraced phase ph,
// the traced phase tph and an in-process replay of tph's first ops, and
// prints the self-time table, the ledger gap and the tracing overhead.
func (b *bench) perLayer(ctx context.Context, ph, tph phase, e2e map[string]metric) (map[string]metric, error) {
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	byOp := map[int]*opSpans{}
	var leaseMs []float64
	for _, s := range spans {
		o := byOp[s.Op]
		if o == nil {
			o = &opSpans{}
			byOp[s.Op] = o
		}
		switch s.Name {
		case "op":
			o.root = s
		case "client.submit":
			o.submit += s.dur()
		case "client.job_wait":
			o.wait += s.dur()
		case "client.ttfb":
			o.ttfb += s.dur()
		case "client.body":
			o.body += s.dur()
			o.bodySelf += self[s.ID]
		case "client.verify":
			o.verify += s.dur()
		case "distgen.lease":
			leaseMs = append(leaseMs, ms(s.dur()))
		}
	}
	// Per traced op (verified ones only): client span sums, per edge
	// where the metric is per edge.
	var submit, wait, ttfb, body, bodySelf, verify, serial []float64
	var leases, writeMs []float64
	var issued, accepted, backoffs int64
	var ok int
	for i, r := range tph.ops {
		o := byOp[i]
		if r.err != nil || o == nil {
			continue
		}
		ok++
		e := float64(r.edges)
		submit = append(submit, ms(o.submit))
		wait = append(wait, ms(o.wait))
		ttfb = append(ttfb, ms(o.ttfb))
		body = append(body, float64(o.body)/e)
		bodySelf = append(bodySelf, float64(o.bodySelf)/e)
		verify = append(verify, float64(o.verify)/e)
		serial = append(serial, ms(o.root.dur()-self[o.root.ID]))
		if r.dg != nil {
			leases = append(leases, float64(r.leases))
			writeMs = append(writeMs, ms(r.writeNs))
			issued += r.leases
			for _, w := range r.dg.Workers {
				accepted += int64(w.Leases)
				backoffs += int64(w.Backoffs)
			}
		}
	}
	if ok == 0 {
		return nil, fmt.Errorf("no traced op verified")
	}

	// Peak RSS is read before the replay grows this process.
	selfPeak, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	fleetPeak, err := b.fl.peakRSS()
	if err != nil {
		return nil, err
	}

	// In-process replay at the replicas' parallelism.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	rp := newReplayer(b.tr)
	defer rp.close()
	var reps []replayed
	for i, pr := range tph.preps {
		op := len(tph.ops) + i
		var r replayed
		if b.wl.distgen {
			dg := tph.ops[0].dg
			if dg == nil {
				return nil, fmt.Errorf("replay: first traced op has no distgen result")
			}
			r, err = rp.distgen(ctx, pr, dg.Rows, dg.Cols, op)
			for _, t := range tph.ops {
				if t.dg != nil && t.err == nil && t.dg.AuditChecks != r.auditChecks {
					b.problems = append(b.problems, fmt.Sprintf(
						"replayed audit ran %d checks, distgen.Run reported %d", r.auditChecks, t.dg.AuditChecks))
				}
			}
		} else {
			r, err = rp.stream(ctx, pr, b.wl.format, op)
		}
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	perEdge := func(f func(replayed) time.Duration) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = float64(f(r)) / float64(r.edges)
		}
		return median(xs)
	}
	msOf := func(f func(replayed) time.Duration) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = ms(f(r))
		}
		return median(xs)
	}
	stream := perEdge(func(r replayed) time.Duration { return r.stream })
	walk := perEdge(func(r replayed) time.Duration { return r.walk })
	var encode, socket float64
	if !b.wl.distgen {
		encode = stream - walk
		socket = median(body) - stream
	}
	bytesPerEdge := make([]float64, len(reps))
	for i, r := range reps {
		bytesPerEdge[i] = float64(r.bytes) / float64(r.edges)
	}
	var checks float64
	if len(reps) > 0 {
		checks = float64(reps[0].auditChecks)
	}
	leaseTail, leasePct, leaseBeyond := 0.0, 0.0, 0
	if len(leaseMs) > 0 {
		leaseTail, leasePct, leaseBeyond = tail(leaseMs)
	}
	zeroNaN := func(x float64) float64 {
		if x != x {
			return 0
		}
		return x
	}
	verified := float64(ph.verified())
	gap := e2e["op_p50_ms"].Value - median(serial)
	overhead := ratio(tph.edgesPerSec(), ph.edgesPerSec())
	m := map[string]metric{
		"spec.build_ms":               {msOf(func(r replayed) time.Duration { return r.specBuild }), "ms"},
		"core.walk_ns_per_edge":       {walk, "ns/edge"},
		"core.count_pass_ns_per_edge": {perEdge(func(r replayed) time.Duration { return r.countPass }), "ns/edge"},
		"core.block_walk_ns_per_edge": {perEdge(func(r replayed) time.Duration { return r.blockWalk }), "ns/edge"},
		"serve.submit_ms":             {msOf(func(r replayed) time.Duration { return r.submit }), "ms"},
		"serve.stream_ns_per_edge":    {stream, "ns/edge"},
		"serve.encode_ns_per_edge":    {encode, "ns/edge"},
		"serve.bytes_per_edge":        {median(bytesPerEdge), "B/edge"},
		"serve.lease_ns_per_edge":     {perEdge(func(r replayed) time.Duration { return r.lease }), "ns/edge"},
		"serve.decode_ns_per_edge":    {perEdge(func(r replayed) time.Duration { return r.decode }), "ns/edge"},
		"audit.ns_per_edge":           {perEdge(func(r replayed) time.Duration { return r.auditTime }), "ns/edge"},
		"audit.checks":                {checks, "count"},
		"distgen.lease_p50_ms":        {zeroNaN(median(leaseMs)), "ms"},
		"distgen.lease_tail_ms":       {zeroNaN(leaseTail), "ms"},
		"distgen.leases_issued":       {zeroNaN(median(leases)), "count"},
		"distgen.useful_lease_ratio":  {ratio(float64(accepted), float64(issued)), "ratio"},
		"distgen.backoffs":            {ratio(float64(backoffs), float64(len(leases))), "count"},
		"distgen.merge_write_ms":      {zeroNaN(median(writeMs)), "ms"},
		"client.submit_ms":            {median(submit), "ms"},
		"client.job_wait_ms":          {median(wait), "ms"},
		"client.ttfb_ms":              {median(ttfb), "ms"},
		"client.body_ns_per_edge":     {median(body), "ns/edge"},
		"client.socket_ns_per_edge":   {socket, "ns/edge"},
		"client.verify_ns_per_edge":   {median(verify), "ns/edge"},
		"client.cpu_ns_per_edge":      {ratio(float64(ph.clientCPU()), verified), "ns/edge"},
		"replica.cpu_ns_per_edge":     {ratio(float64(ph.replicaCPU), verified), "ns/edge"},
		"client.rss_peak_mb":          {float64(selfPeak) / (1 << 20), "MiB"},
		"replica.rss_peak_mb":         {float64(fleetPeak) / (1 << 20), "MiB"},
		"ledger.gap_ms":               {gap, "ms"},
		"trace.overhead_ratio":        {overhead, "ratio"},
	}

	all := b.tr.snapshot()
	fmt.Fprintf(os.Stderr, "per-layer self time (%d traced ops, %d replays; self = duration minus the part child spans cover):\n", ok, len(reps))
	for _, l := range selfByName(all) {
		fmt.Fprintf(os.Stderr, "  %-22s %7d spans %12.3f ms self %12.4f ms/span\n",
			l.Name, l.Count, ms(l.Self), ms(l.Self)/float64(l.Count))
	}
	if len(leaseMs) > 0 {
		fmt.Fprintf(os.Stderr, "distgen.lease_tail_ms is p%.1f of %d leases with %d beyond it\n", leasePct, len(leaseMs), leaseBeyond)
	}
	fmt.Fprintf(os.Stderr, "ledger.gap_ms %s = %.3f ms: op_p50_ms %.3f (untraced) - serial client spans %.3f (traced median; submit %.3f, job_wait %.3f, ttfb %.3f, body %.3f of which socket wait %s ns/edge)\n",
		b.wl.name, gap, e2e["op_p50_ms"].Value, median(serial), median(submit), median(wait), median(ttfb),
		median(body), strconv.FormatFloat(median(bodySelf), 'f', 3, 64))
	fmt.Fprintf(os.Stderr, "trace.overhead_ratio %s = %.4f (traced %.6g edges/s / untraced %.6g edges/s)\n",
		b.wl.name, overhead, tph.edgesPerSec(), ph.edgesPerSec())
	return m, nil
}
