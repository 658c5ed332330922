package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"kronbip/internal/obs"
	"kronbip/internal/spec"
	"kronbip/internal/wire"
)

// Block leases: POST /v1/leases is the worker half of distributed
// generation (internal/distgen).  A coordinator partitions a spec's
// canonical edge order into rows×cols blocks and asks one replica to
// stream one block, always as bin wire frames, so a dropped lease
// resumes from its last complete frame; determinism means any replica
// can serve any block, a retried lease reproduces the identical bytes,
// and the closed-form core.BlockEdgeCount lets both sides verify the
// stream without trust.
//
// A lease is synchronous: the response IS the work.  It walks its
// block, so admission is the walk cap it shares with edge streams and
// audited jobs (Config.MaxWalks), and a full server answers 429 +
// Retry-After so the coordinator backs off and routes the block to
// another replica.  Every lease prices its block's Σ◊ (Thm. 5) per
// prefix pair in the pass that walks it and sends the sum in a trailer;
// summed over the grid that is 4·□(C), which the coordinator checks
// against the closed form without walking the product.  The other
// invariants (degree sums, membership) it audits on the merged stream,
// and it verifies each block against its closed-form count.

// HeaderBlockEdges carries the closed-form edge count of the leased
// block, sent as a response header before the first edge so the
// consumer knows the expected total up front (the exact streamed count
// is repeated in the TrailerEdges trailer at EOF).
const HeaderBlockEdges = "X-Kronbip-Block-Edges"

// The block's Σ◊ travels in the wire.TrailerFourSum trailer.  A resumed
// lease reports the whole block too, so its trailer equals the fresh
// lease's.  On an aborted lease the value is whatever the walk had
// priced when it stopped, which matches no set of sent edges; the
// coordinator fails such a lease on its status and never reads it.

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
	// Format is "bin", the only lease encoding, or absent.  A
	// coordinator salvages and resumes a dropped lease from its complete
	// wire frames, which no text rendering carries.
	Format string `json:"format"`
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
	if req.Format != "" && req.Format != "bin" {
		writeError(w, http.StatusBadRequest, "bad lease format %q (leases are bin only)", req.Format)
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
	// A full walk cap answers 429: waiting would only hold the
	// coordinator's connection open while another replica sits idle.
	if !s.admitWalk(w, r, "lease") {
		mLeaseRejects.Inc()
		return
	}
	defer func() { s.mgr.walks.release(); gLeasesActive.Add(-1) }()
	gLeasesActive.Add(1)

	ri := requestFrom(r.Context())
	obs.Flight.RecordNote(obs.FlightInfo, "lease", "lease start", int64(req.Row*req.Cols+req.Col), want, ri.id)

	w.Header().Set("Content-Type", ContentTypeBin)
	w.Header().Set(HeaderBlockEdges, strconv.FormatInt(want, 10))
	w.Header().Set(HeaderStreamOffset, strconv.FormatInt(req.Offset, 10))
	w.Header().Set("Trailer", streamTrailers(false)+", "+wire.TrailerFourSum)
	w.WriteHeader(http.StatusOK)

	cuts, cerr := p.BlockTermEdgeStarts(req.Row, req.Rows, req.Col, req.Cols)
	if cerr != nil {
		// Unreachable: the coordinates validated above.
		cuts = []int64{want}
	}
	out := newBinSink(w, cuts, req.Offset, want)
	defer out.release()
	// The lease rides the priced run walk, which sums the 4-cycle counts
	// per prefix pair as it frames the pair's run.  A fresh lease covers
	// the whole block; a resumed one first prices the skipped prefix
	// [0, offset) without walking its edges, then seeks to its offset in
	// closed form and walks the tail.
	fourSum, err := p.PriceBlockRangeContext(r.Context(), req.Row, req.Rows, req.Col, req.Cols, 0, req.Offset)
	if err == nil {
		err = walkWindow(r.Context(), p, req.Row, req.Rows, req.Col, req.Cols, req.Offset, want, out, nil, &fourSum)
	}
	if ferr := out.Flush(); err == nil {
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
