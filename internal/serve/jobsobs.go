package serve

import (
	"net/http"
	"time"

	"kronbip/internal/obs/timeline"
)

// GET /v1/jobs/{id}/obs — the per-job observability view: the job's
// correlation identity, its priced edge count and audit time, and —
// when timeline recording is on — its job-lane events.

// jobObsResponse is the endpoint payload.
type jobObsResponse struct {
	ID              string  `json:"id"`
	State           string  `json:"state"`
	RequestID       string  `json:"request_id,omitempty"`
	TraceID         string  `json:"trace_id,omitempty"`
	EdgesStreamed   int64   `json:"edges_streamed"`
	RunSeconds      float64 `json:"run_seconds,omitempty"`
	TimelineEnabled bool    `json:"timeline_enabled"`

	JobEvents []jobObsEvent `json:"job_events,omitempty"`
}

// jobObsEvent is one event from the job's timeline lane.
type jobObsEvent struct {
	Name       string  `json:"name"`
	OK         bool    `json:"ok"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Note       string  `json:"note,omitempty"`
}

func (s *Server) handleJobObs(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	st := j.Status()
	resp := jobObsResponse{
		ID:              st.ID,
		State:           st.State,
		RequestID:       st.RequestID,
		TraceID:         st.TraceID,
		EdgesStreamed:   st.EdgesStreamed,
		RunSeconds:      st.RunSeconds,
		TimelineEnabled: timeline.Enabled(),
	}
	if resp.TimelineEnabled {
		events, _ := timeline.Default.Snapshot()
		for _, ev := range events {
			if ev.Cat == timeline.CatJob && ev.ID == j.seq {
				resp.JobEvents = append(resp.JobEvents, jobObsEvent{
					Name:       ev.Name,
					OK:         ev.OK,
					Start:      ev.Start.UTC().Format(time.RFC3339Nano),
					DurationMS: float64(ev.Dur.Microseconds()) / 1000,
					Note:       ev.Note,
				})
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
