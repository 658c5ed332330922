package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
)

// Block leases: POST /v1/leases is the worker half of distributed
// generation (internal/distgen).  A coordinator partitions a spec's
// canonical edge order into rows×cols blocks and asks one replica to
// stream one block; determinism means any replica can serve any block,
// a retried lease reproduces the identical bytes, and the closed-form
// core.BlockEdgeCount lets both sides verify the stream without trust.
//
// Unlike jobs, a lease is synchronous: the response IS the work.  There
// is no queue — admission is a concurrency cap (Config.MaxLeases) and a
// full server answers 429 + Retry-After so the coordinator backs off
// and routes the block to another replica.  Every lease prices its
// edges with their 4-cycle counts as it walks (Thm. 5) and sends the
// block's Σ◊ in a trailer; summed over the grid that is 4·□(C), which
// the coordinator checks against the closed form without walking the
// product.  The other invariants (degree sums, membership) it audits on
// the merged stream, and it verifies each block against its
// closed-form count.

// HeaderBlockEdges carries the closed-form edge count of the leased
// block, sent as a response header before the first edge so the
// consumer knows the expected total up front (the exact streamed count
// is repeated in the TrailerEdges trailer at EOF).
const HeaderBlockEdges = "X-Kronbip-Block-Edges"

// The block's Σ◊ travels in the wire.TrailerFourSum trailer.  A resumed
// lease reports the whole block too, so its trailer equals the fresh
// lease's; on an aborted lease the value covers only the edges walked
// before the abort.

// Lease metrics (request/latency/error series come from the shared RED
// "leases" route; these cover the lease-specific lifecycle).
var (
	gLeasesActive = obs.Default.Gauge("serve.leases.active")
	mLeasesDone   = obs.Default.Counter("serve.leases.completed")
	mLeaseRejects = obs.Default.Counter("serve.leases.rejected") // 429 + 413 + 503
	mLeaseAborts  = obs.Default.Counter("serve.leases.aborts")
)

// leaseRequest is the POST /v1/leases body.  The spec fields follow the
// submitRequest vocabulary; the block coordinates follow
// core.EachEdgeBlockBatchContext: (row, col) of a rows×cols blocking of
// the canonical edge order.
type leaseRequest struct {
	Factor  string   `json:"factor"`
	Factors []string `json:"factors"`
	Mode    string   `json:"mode"`
	Seed    *int64   `json:"seed"`
	Row     int      `json:"row"`
	Rows    int      `json:"rows"`
	Col     int      `json:"col"`
	Cols    int      `json:"cols"`
	Format  string   `json:"format"` // "ndjson" (default), "tsv" or "bin"
	// Offset skips the first N block-local edges — a coordinator that
	// banked the complete frames of a dropped lease resumes from the
	// last frame boundary instead of re-leasing the whole block.
	Offset int64 `json:"offset"`
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		mLeaseRejects.Inc()
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	var req leaseRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	if req.Factor != "" && len(req.Factors) > 0 {
		writeError(w, http.StatusBadRequest, `use either "factor" or "factors", not both`)
		return
	}
	format, err := parseStreamFormat(req.Format, r.Header.Get("Accept"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	factors := req.Factors
	if req.Factor != "" {
		factors = []string{req.Factor}
	}
	sp := spec.Spec{Factors: factors, Mode: req.Mode, Seed: spec.DefaultSeed}
	if req.Seed != nil {
		sp.Seed = *req.Seed
	}
	sp = sp.WithDefaults()
	p, err := s.cache.get(sp)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	want, err := p.BlockEdgeCount(req.Row, req.Rows, req.Col, req.Cols)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Offset < 0 {
		writeError(w, http.StatusBadRequest, "bad offset %d (want a non-negative block-local edge index)", req.Offset)
		return
	}
	if req.Offset > want {
		w.Header().Set(HeaderBlockEdges, strconv.FormatInt(want, 10))
		writeError(w, http.StatusRequestedRangeNotSatisfiable,
			"offset %d beyond block end (%d edges)", req.Offset, want)
		return
	}
	// The budget guards one lease's worth of generation, exactly as
	// MaxEdges guards one job's: the closed form rejects before any work.
	if s.cfg.MaxEdges > 0 && want > s.cfg.MaxEdges {
		mLeaseRejects.Inc()
		obs.Flight.RecordNote(obs.FlightWarn, "lease", "reject too-large", want, s.cfg.MaxEdges, requestFrom(r.Context()).id)
		writeError(w, http.StatusRequestEntityTooLarge,
			"%v: block carries %d edges > budget %d", ErrTooLarge, want, s.cfg.MaxEdges)
		return
	}
	// Concurrency cap in place of a queue: a lease is synchronous, so
	// "queued" would just hold the coordinator's connection open while
	// another replica sits idle.  429 tells it to go elsewhere.
	select {
	case s.leaseSem <- struct{}{}:
		defer func() { <-s.leaseSem; gLeasesActive.Add(-1) }()
		gLeasesActive.Add(1)
	default:
		mLeaseRejects.Inc()
		obs.Flight.RecordNote(obs.FlightWarn, "lease", "reject saturated", int64(s.cfg.MaxLeases), 0, requestFrom(r.Context()).id)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "serve: lease capacity is full")
		return
	}

	ri := requestFrom(r.Context())
	obs.Flight.RecordNote(obs.FlightInfo, "lease", "lease start", int64(req.Row*req.Cols+req.Col), want, ri.id)

	w.Header().Set("Content-Type", contentTypeFor(format))
	w.Header().Set(HeaderBlockEdges, strconv.FormatInt(want, 10))
	w.Header().Set(HeaderStreamOffset, strconv.FormatInt(req.Offset, 10))
	w.Header().Set("Trailer", streamTrailers(false)+", "+wire.TrailerFourSum)
	w.WriteHeader(http.StatusOK)

	var out edgeStreamSink
	if format == "bin" {
		cuts, cerr := p.BlockTermEdgeStarts(req.Row, req.Rows, req.Col, req.Cols)
		if cerr != nil {
			// Unreachable: the coordinates validated above.
			cuts = []int64{want}
		}
		out = newBinSink(w, cuts, req.Offset)
	} else {
		out = newStreamSink(w, format == "ndjson")
	}
	// The lease rides the ◊ batch walk, which prices every edge with its
	// 4-cycle count.  A fresh lease covers the whole block; a resumed one
	// first ◊-sums the skipped prefix [0, offset) without emitting it,
	// then seeks to its offset in closed form and batches the tail.
	var fourSum int64
	var sinkErr error
	walk := func(lo, hi int64, emit bool) error {
		return p.EachEdgeFourCycleBlockRangeBatchContext(r.Context(), req.Row, req.Rows, req.Col, req.Cols, lo, hi,
			func(batch []exec.Edge, sq []int64) bool {
				for _, s := range sq {
					fourSum += s
				}
				if emit {
					sinkErr = out.EdgeBatch(batch)
				}
				return sinkErr == nil
			})
	}
	if req.Offset > 0 {
		err = walk(0, req.Offset, false)
	}
	if err == nil {
		err = walk(req.Offset, want, true)
	}
	if err == nil {
		err = sinkErr
	}
	if ferr := out.Flush(); err == nil && ferr != nil {
		err = ferr
	}

	status := "complete"
	if err != nil {
		status = "aborted"
		mLeaseAborts.Inc()
		mStreamAborts.Inc()
		obs.Flight.RecordNote(obs.FlightWarn, "lease", "lease aborted", out.count(), want, ri.id)
	} else {
		mLeasesDone.Inc()
		obs.Flight.RecordNote(obs.FlightInfo, "lease", "lease done", out.count(), want, ri.id)
	}
	w.Header().Set(TrailerStatus, status)
	w.Header().Set(TrailerEdges, strconv.FormatInt(out.count(), 10))
	w.Header().Set(wire.TrailerFourSum, strconv.FormatInt(fourSum, 10))
	if ri.id != "" {
		w.Header().Set(http.TrailerPrefix+wire.HeaderRequestID, ri.id)
	}
}
