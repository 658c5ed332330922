package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"kronbip/internal/exec"
	"kronbip/internal/serve"
	"kronbip/internal/spec"
)

// capture streams a whole job through an in-process server and returns
// the payload, its trailers and the expectation a verifier checks.
func capture(t *testing.T, format string) ([]byte, http.Header, streamWant) {
	t.Helper()
	sp := spec.Spec{Factors: []string{"crown6", "crown4"}, Mode: spec.ModeSelfLoop, Seed: 3}
	p, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := refDigest(p, 0, p.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	defer srv.Shutdown(time.Second)
	rp := &replayer{srv: srv, h: srv.Handler()}
	w := newRespWriter(true)
	rp.call(w, http.MethodPost, "/v1/jobs", `{"factors":["crown6","crown4"],"mode":"selfloop","seed":3}`)
	var st serve.JobStatus
	if err := json.Unmarshal(w.buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	for st.State != "done" {
		time.Sleep(time.Millisecond)
		w = newRespWriter(true)
		rp.call(w, http.MethodGet, "/v1/jobs/"+st.ID, "")
		if err := json.Unmarshal(w.buf.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	w = newRespWriter(true)
	rp.call(w, http.MethodGet, "/v1/jobs/"+st.ID+"/edges?format="+format, "")
	if err := w.complete(p.NumEdges()); err != nil {
		t.Fatal(err)
	}
	return w.buf.Bytes(), w.hdr, streamWant{format: format, edges: p.NumEdges(), total: p.NumEdges(), digest: d}
}

func verifyPayload(payload []byte, trailer http.Header, want streamWant) error {
	rc := newReceiver()
	res, err := rc.consume(bytes.NewReader(payload), want.format, 0, nil, 0, 0)
	if err != nil {
		return err
	}
	return checkBody(res, trailer, want)
}

func TestVerifierRejectsCorruptedPayloads(t *testing.T) {
	for _, format := range []string{"bin", "ndjson"} {
		payload, trailer, want := capture(t, format)
		if err := verifyPayload(payload, trailer, want); err != nil {
			t.Fatalf("%s: clean payload rejected: %v", format, err)
		}
		bad, err := corruptions(payload, format)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 3 {
			t.Fatalf("%s: %d corruptions, want 3", format, len(bad))
		}
		for name, c := range bad {
			if err := verifyPayload(c, trailer, want); err == nil {
				t.Errorf("%s: %s payload accepted", format, name)
			}
		}
	}
}

func TestVerifierRejectsLyingTrailers(t *testing.T) {
	payload, trailer, want := capture(t, "bin")
	for name, mutate := range map[string]func(h http.Header){
		"aborted":    func(h http.Header) { h.Set(serve.TrailerStatus, "aborted") },
		"no status":  func(h http.Header) { h.Del(serve.TrailerStatus) },
		"edge count": func(h http.Header) { h.Set(serve.TrailerEdges, strconv.FormatInt(want.edges+1, 10)) },
	} {
		h := trailer.Clone()
		mutate(h)
		if err := verifyPayload(payload, h, want); err == nil {
			t.Errorf("%s trailer accepted", name)
		}
	}
	wrong := want
	wrong.digest++
	if err := verifyPayload(payload, trailer, wrong); err == nil {
		t.Error("payload accepted against a different reference digest")
	}
}

func TestReceiverDecodesAcrossBufferBoundaries(t *testing.T) {
	// A payload several receive buffers long must decode identically
	// when frames and lines straddle buffer ends.
	for _, format := range []string{"bin", "ndjson"} {
		payload, trailer, want := capture(t, format)
		rc := newReceiver()
		rc.buf = rc.buf[:20000] // holds a whole frame, but far less than the payload
		if len(payload) < 3*len(rc.buf) {
			t.Fatalf("%s payload of %d bytes is too short to straddle buffers", format, len(payload))
		}
		res, err := rc.consume(bytes.NewReader(payload), format, 0, nil, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := checkBody(res, trailer, want); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
}

func TestParseNDJSONLine(t *testing.T) {
	if v, w, err := parseNDJSONLine([]byte(`{"v":12,"w":345}`)); err != nil || v != 12 || w != 345 {
		t.Errorf("parse = %d,%d,%v", v, w, err)
	}
	for _, bad := range []string{``, `{"v":1,"w":2}x`, `{"v":,"w":2}`, `{"v":1,"w":-2}`, `{"w":1,"v":2}`, `{"v":1234567890123456789,"w":1}`} {
		if _, _, err := parseNDJSONLine([]byte(bad)); err == nil {
			t.Errorf("parse(%q) accepted", bad)
		}
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	a := digestEdges(digestSeed, []exec.Edge{{V: 1, W: 2}, {V: 3, W: 4}})
	b := digestEdges(digestSeed, []exec.Edge{{V: 3, W: 4}, {V: 1, W: 2}})
	if a == b {
		t.Error("swapping two edges left the digest unchanged")
	}
}
