#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for `kronbip serve`.
#
# Exercises the acceptance flow with nothing but curl and a shell:
#   1. start the server on an ephemeral port (scraped from the
#      load-bearing "listening on http://ADDR" stderr line)
#   2. /healthz answers ok and carries the version Server header;
#      /readyz answers ready; every response carries a request id and a
#      traceparent; cold worst-case factors inside spec.MaxFactorSize
#      answer /v1/truth within 5 s (star65536: 400 naming the 4-cycle
#      overflow; sf4000x4000x65536: 200)
#   3. submit a small selfloop⊗selfloop job (with a client traceparent,
#      which must propagate); the submit itself answers done, because a
#      job is priced, not generated; an audited job polls to done with
#      its audit checks
#   4. stream the edge list as TSV and verify the line count against
#      the closed-form /v1/truth edge count for the same spec; kill a
#      stream mid-flight, resume from ?offset=, and the stitched file
#      is byte-identical to an uninterrupted fetch; the binary wire
#      format (format=bin / Accept negotiation) streams deterministically
#      and beats the text encoding on the wire
#   5. hold the one walk slot (-max-walks 1) with a rate-limited edge
#      stream and verify a second stream and a lease each bounce with
#      429 + Retry-After
#   6. /metrics exposes the serve counters (incl. a real cache hit), the
#      windowed SLO gauges (healthy, populated, p99 within target) and
#      the runtime.* telemetry
#   7. SIGQUIT on the live server writes a flight-recorder dump carrying
#      the job lifecycle and http trails — and the server keeps serving
#   8. SIGINT drains and the process exits 0; -metrics-out is written;
#      the access log and timeline journal carry the request/trace ids;
#      a final flight dump lands at the -flight-dump path
#
# Usage: scripts/serve_smoke.sh   (from anywhere inside the repo)
# Set SMOKE_DIR to keep the scratch dir (server log, flight dump,
# access log) for artifact collection instead of a throwaway mktemp.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ -n "${SMOKE_DIR:-}" ]; then
  tmp=$SMOKE_DIR
  mkdir -p "$tmp"
  keep_tmp=1
else
  tmp=$(mktemp -d)
  keep_tmp=
fi
srv_pid=
cleanup() {
  if [ -n "$srv_pid" ] && kill -0 "$srv_pid" 2>/dev/null; then
    kill "$srv_pid" 2>/dev/null || true
    wait "$srv_pid" 2>/dev/null || true
  fi
  [ -n "$keep_tmp" ] || rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
  echo "serve-smoke: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$tmp/serve.log" >&2 || true
  exit 1
}

# jq-free field extraction from the server's indented JSON.
jfield() { # jfield <name> — prints the value of "name": <value>
  sed -n 's/.*"'"$1"'": *"\{0,1\}\([^",]*\)"\{0,1\}.*/\1/p' | head -1
}

echo "serve-smoke: building kronbip"
go build -o "$tmp/kronbip" ./cmd/kronbip

# 1. Start on an ephemeral port; one walk slot makes the saturation
# check deterministic.
"$tmp/kronbip" serve -addr 127.0.0.1:0 -max-walks 1 \
  -metrics-out "$tmp/metrics.json" -access-log "$tmp/access.log" \
  -journal-out "$tmp/journal.log" -flight-dump "$tmp/flight.dump" \
  2>"$tmp/serve.log" &
srv_pid=$!

addr=
for _ in $(seq 1 100); do
  addr=$(sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$tmp/serve.log" | head -1)
  [ -n "$addr" ] && break
  kill -0 "$srv_pid" 2>/dev/null || fail "server died during startup"
  sleep 0.1
done
[ -n "$addr" ] || fail "server never reported its listen address"
base="http://$addr"
echo "serve-smoke: server up at $base"

# 2. Health + version header; readiness; request identity on every
# response.
curl -fsS -D "$tmp/hz.hdr" "$base/healthz" >"$tmp/hz.json"
grep -q '"status": "ok"' "$tmp/hz.json" || fail "/healthz not ok: $(cat "$tmp/hz.json")"
grep -qi '^Server: kronbip/' "$tmp/hz.hdr" || fail "missing kronbip Server header"
grep -qi '^X-Kronbip-Request-Id:' "$tmp/hz.hdr" || fail "response missing X-Kronbip-Request-Id"
grep -qi '^Traceparent: 00-' "$tmp/hz.hdr" || fail "response missing traceparent"
curl -fsS "$base/readyz" >"$tmp/rz.json"
grep -q '"status": "ready"' "$tmp/rz.json" || fail "/readyz not ready: $(cat "$tmp/rz.json")"
echo "serve-smoke: healthz ok, readyz ready, identity headers present"

# 2b. Cold worst-case factors: factor statistics are one wedge pass, so
# the largest specs spec.MaxFactorSize admits answer in well under a
# second — star65536 with its chain 4-cycle overflow, the largest
# scale-free factor with its closed forms.
code=$(curl -sS -m 5 -o "$tmp/star.json" -w '%{http_code}' "$base/v1/truth?factor=star65536") ||
  fail "/v1/truth?factor=star65536 did not answer within 5 s"
[ "$code" = 400 ] || fail "/v1/truth?factor=star65536 answered $code, want 400: $(cat "$tmp/star.json")"
grep -q '4-cycle count overflows' "$tmp/star.json" || fail "star65536 error does not name the 4-cycle overflow: $(cat "$tmp/star.json")"
code=$(curl -sS -m 5 -o "$tmp/sf.json" -w '%{http_code}' "$base/v1/truth?factor=sf4000x4000x65536") ||
  fail "/v1/truth?factor=sf4000x4000x65536 did not answer within 5 s"
[ "$code" = 200 ] || fail "/v1/truth?factor=sf4000x4000x65536 answered $code, want 200: $(cat "$tmp/sf.json")"
echo "serve-smoke: cold star65536 (400, overflow) and sf4000x4000x65536 (200) answered within 5 s"

# 3. Submit a small selfloop⊗selfloop job with a client trace context;
# the trace id must propagate to the response and into the job record.
# A job is priced, not generated, so the submit response itself reads
# done.  The same spec audited runs its checks and polls to done.
spec_factor=crown6 spec_seed=7
trace_id=4bf92f3577b34da6a3ce929d0e0e4736
curl -fsS -X POST -H 'Content-Type: application/json' \
  -H "traceparent: 00-$trace_id-00f067aa0ba902b7-01" \
  -H 'X-Kronbip-Request-Id: smoke-req-1' \
  -D "$tmp/job.hdr" \
  -d "{\"factor\":\"$spec_factor\",\"mode\":\"selfloop\",\"seed\":$spec_seed}" \
  "$base/v1/jobs" >"$tmp/job.json"
job_id=$(jfield id <"$tmp/job.json")
[ -n "$job_id" ] || fail "submit returned no job id: $(cat "$tmp/job.json")"
grep -qi '^X-Kronbip-Request-Id: smoke-req-1' "$tmp/job.hdr" || fail "submit response did not echo the request id"
grep -qi "^Traceparent: 00-$trace_id-" "$tmp/job.hdr" || fail "submit response did not propagate the trace id"
grep -q "\"trace_id\": \"$trace_id\"" "$tmp/job.json" || fail "job record lacks the submitted trace id"
state=$(jfield state <"$tmp/job.json")
[ "$state" = done ] || fail "submit answered state=$state, want done: $(cat "$tmp/job.json")"
cp "$tmp/job.json" "$tmp/poll.json"
echo "serve-smoke: submitted $job_id, done on submit (trace $trace_id propagated)"

curl -fsS -X POST \
  -d "{\"factor\":\"$spec_factor\",\"mode\":\"selfloop\",\"seed\":$spec_seed,\"audit\":true}" \
  "$base/v1/jobs" >"$tmp/audit-job.json"
audit_id=$(jfield id <"$tmp/audit-job.json")
[ -n "$audit_id" ] || fail "audited submit returned no job id: $(cat "$tmp/audit-job.json")"
state=
for _ in $(seq 1 100); do
  curl -fsS "$base/v1/jobs/$audit_id" >"$tmp/audit-poll.json"
  state=$(jfield state <"$tmp/audit-poll.json")
  [ "$state" = done ] && break
  [ "$state" = failed ] && fail "audited job failed: $(cat "$tmp/audit-poll.json")"
  sleep 0.1
done
[ "$state" = done ] || fail "audited job never finished (state=$state)"
checks=$(jfield audit_checks <"$tmp/audit-poll.json")
[ "${checks:-0}" -ge 1 ] || fail "audited job done with audit_checks=$checks"
echo "serve-smoke: audited $audit_id done with $checks checks"

# 4. Streamed edge count must equal the closed form — twice over: the
# job status agrees with /v1/truth, and the actual TSV stream agrees
# with both.
curl -fsS "$base/v1/truth?factor=$spec_factor&mode=selfloop&seed=$spec_seed" >"$tmp/truth.json"
want=$(jfield num_edges <"$tmp/truth.json")
[ -n "$want" ] || fail "/v1/truth returned no num_edges"
streamed=$(jfield edges_streamed <"$tmp/poll.json")
[ "$streamed" = "$want" ] || fail "job streamed $streamed edges, truth says $want"
got=$(curl -fsS "$base/v1/jobs/$job_id/edges?format=tsv" | wc -l | tr -d ' ')
[ "$got" = "$want" ] || fail "edge stream has $got lines, truth says $want"
echo "serve-smoke: $got streamed edges match closed-form |E_C|=$want"

# 4b. Mid-stream kill + resume: take the first half of the stream, drop
# the connection, fetch the rest with ?offset=, and the stitched file
# must match an uninterrupted fetch byte for byte.
curl -fsS "$base/v1/jobs/$job_id/edges?format=tsv" -o "$tmp/full.tsv"
cut=$((want / 2))
(curl -s "$base/v1/jobs/$job_id/edges?format=tsv" || true) \
  | head -n "$cut" >"$tmp/stitched.tsv"
curl -fsS "$base/v1/jobs/$job_id/edges?format=tsv&offset=$cut" >>"$tmp/stitched.tsv"
cmp -s "$tmp/full.tsv" "$tmp/stitched.tsv" \
  || fail "resumed stream (killed at $cut, resumed via ?offset=) differs from uninterrupted fetch"
echo "serve-smoke: stream killed at edge $cut resumed byte-identically"

# 4c. Binary wire format: format=bin and Accept negotiation produce the
# same deterministic byte stream, a past-the-end offset answers 416, and
# the wire encoding is smaller than the text one.
curl -fsS "$base/v1/jobs/$job_id/edges?format=bin" -o "$tmp/full.bin"
[ -s "$tmp/full.bin" ] || fail "bin stream is empty"
curl -fsS -H 'Accept: application/vnd.kronbip.edges' \
  "$base/v1/jobs/$job_id/edges" -o "$tmp/accept.bin"
cmp -s "$tmp/full.bin" "$tmp/accept.bin" \
  || fail "Accept-negotiated bin stream differs from ?format=bin"
code=$(curl -s -o /dev/null -w '%{http_code}' \
  "$base/v1/jobs/$job_id/edges?format=bin&offset=$((want + 1))")
[ "$code" = 416 ] || fail "offset past the end answered $code, want 416"
tsv_bytes=$(wc -c <"$tmp/full.tsv" | tr -d ' ')
bin_bytes=$(wc -c <"$tmp/full.bin" | tr -d ' ')
[ "$bin_bytes" -lt "$tsv_bytes" ] \
  || fail "bin stream ($bin_bytes B) not smaller than tsv ($tsv_bytes B)"
echo "serve-smoke: bin wire format deterministic ($bin_bytes B vs $tsv_bytes B tsv), 416 past the end"

# 5. Saturation → 429 + Retry-After.  A rate-limited stream of a big
# job holds the one walk slot once its response headers arrive; a
# second edge stream and a lease must each bounce.  DELETE then aborts
# the held stream, and the slot must come free again.
curl -fsS -X POST -d '{"factor":"sf500x500x20000","seed":1}' "$base/v1/jobs" >"$tmp/big.json"
big_id=$(jfield id <"$tmp/big.json")
[ -n "$big_id" ] || fail "big submit returned no job id: $(cat "$tmp/big.json")"
curl -s --limit-rate 1k -D "$tmp/hold.hdr" -o /dev/null \
  "$base/v1/jobs/$big_id/edges?format=tsv" &
hold_pid=$!
for _ in $(seq 1 100); do
  grep -q '^HTTP/1.1 200' "$tmp/hold.hdr" 2>/dev/null && break
  sleep 0.1
done
grep -q '^HTTP/1.1 200' "$tmp/hold.hdr" || fail "held stream never answered 200"
code=$(curl -s -o /dev/null -D "$tmp/probe.hdr" -w '%{http_code}' \
  "$base/v1/jobs/$job_id/edges?format=tsv")
[ "$code" = 429 ] || fail "second edge stream under a full walk cap answered $code, want 429"
grep -qi '^Retry-After: [1-9]' "$tmp/probe.hdr" || fail "stream 429 without Retry-After"
code=$(curl -s -o /dev/null -D "$tmp/lease.hdr" -w '%{http_code}' -X POST \
  -d "{\"factor\":\"$spec_factor\",\"mode\":\"selfloop\",\"seed\":$spec_seed,\"rows\":1,\"cols\":1}" \
  "$base/v1/leases")
[ "$code" = 429 ] || fail "lease under a full walk cap answered $code, want 429"
grep -qi '^Retry-After: [1-9]' "$tmp/lease.hdr" || fail "lease 429 without Retry-After"
echo "serve-smoke: a held stream makes a second stream and a lease answer 429 with Retry-After"
curl -fsS -X DELETE "$base/v1/jobs/$big_id" >/dev/null
kill "$hold_pid" 2>/dev/null || true
wait "$hold_pid" 2>/dev/null || true
code=
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs/$job_id/edges?format=tsv&limit=1")
  [ "$code" = 200 ] && break
  sleep 0.1
done
[ "$code" = 200 ] || fail "walk slot never came free after the held stream ended (last $code)"

# 6. Serve metrics on /metrics, with a real cache hit first (the truth
# spec above is re-queried, so it must be warm).
curl -fsS "$base/v1/truth?factor=$spec_factor&mode=selfloop&seed=$spec_seed" >/dev/null
# A scrape ticks the SLO evaluator at most once per second
# (obs.SLOOptions.MinInterval), and the flow above can finish within a
# second of step 2's /readyz tick; scrape again until a fresh tick lands.
for _ in $(seq 1 30); do
  curl -fsS "$base/metrics" >"$tmp/metrics.prom"
  awk '$1 == "serve_slo_window_requests" && $2 >= 1 {found=1} END {exit !found}' "$tmp/metrics.prom" && break
  sleep 0.1
done
for m in serve_http_requests serve_jobs_submitted serve_cache_hits; do
  grep -q "$m" "$tmp/metrics.prom" || fail "/metrics missing $m"
done
hits=$(awk '$1 == "serve_cache_hits" {print $2}' "$tmp/metrics.prom")
[ "${hits:-0}" -ge 1 ] || fail "no cache hit recorded after repeated /v1/truth (hits=$hits)"

# 6b. The windowed SLO gauges are populated (the scrape itself ticks the
# evaluator) and within objective: healthy, traffic in the window, and
# measured p99 at or under the target.
for m in serve_slo_healthy serve_slo_p99_us serve_slo_window_requests serve_slo_p99_target_us; do
  grep -q "^$m " "$tmp/metrics.prom" || fail "/metrics missing SLO gauge $m"
done
slo_healthy=$(awk '$1 == "serve_slo_healthy" {print $2}' "$tmp/metrics.prom")
[ "$slo_healthy" = 1 ] || fail "serve_slo_healthy=$slo_healthy, want 1 (SLO burning in smoke?)"
slo_reqs=$(awk '$1 == "serve_slo_window_requests" {print $2}' "$tmp/metrics.prom")
[ "${slo_reqs:-0}" -ge 1 ] || fail "SLO window saw no requests (serve_slo_window_requests=$slo_reqs)"
awk '$1 == "serve_slo_p99_us" {p99=$2} $1 == "serve_slo_p99_target_us" {t=$2}
     END {if (p99+0 > t+0) exit 1}' "$tmp/metrics.prom" \
  || fail "windowed p99 exceeds the SLO target: $(grep '^serve_slo_p99' "$tmp/metrics.prom")"
# Per-route RED series are live for the routes this script exercised.
grep -q 'serve_http_requests{route="truth"}' "$tmp/metrics.prom" || fail "/metrics missing per-route RED series"
echo "serve-smoke: SLO gauges populated and within objective (p99 ok, window_requests=$slo_reqs)"

# 6c. Runtime telemetry: the scrape itself samples the runtime
# collector.
for m in runtime_heap_bytes runtime_goroutines; do
  grep -q "$m" "$tmp/metrics.prom" || fail "/metrics missing $m"
done
heap=$(awk '$1 == "runtime_heap_bytes" {print $2}' "$tmp/metrics.prom")
[ "${heap:-0}" -ge 1 ] || fail "runtime_heap_bytes=$heap, want > 0"
echo "serve-smoke: runtime telemetry live (heap=${heap}B)"

# 7. SIGQUIT writes a flight-recorder dump — and the server survives it.
# The dump must carry the job lifecycle and http trails for the traffic
# above; afterwards the server still answers and still streams.
kill -QUIT "$srv_pid"
for _ in $(seq 1 100); do
  [ -s "$tmp/flight.dump" ] && break
  sleep 0.1
done
[ -s "$tmp/flight.dump" ] || fail "SIGQUIT produced no flight dump at -flight-dump path"
grep -q '^flightrec ' "$tmp/flight.dump" || fail "flight dump lacks its header"
grep -q 'cat=job ev="job submitted"' "$tmp/flight.dump" || fail "flight dump lacks job lifecycle events"
grep -q 'cat=job ev="job done"' "$tmp/flight.dump" || fail "flight dump lacks job completion"
grep -q 'cat=http ev="jobs.submit"' "$tmp/flight.dump" || fail "flight dump lacks http request records"
grep -q '^metrics {' "$tmp/flight.dump" || fail "flight dump lacks the metrics snapshot line"
kill -0 "$srv_pid" 2>/dev/null || fail "server died on SIGQUIT (dump should not be fatal)"
curl -fsS "$base/healthz" >/dev/null || fail "server stopped answering after SIGQUIT"
post_quit=$(curl -fsS "$base/v1/jobs/$job_id/edges?format=tsv" | wc -l | tr -d ' ')
[ "$post_quit" = "$want" ] || fail "post-SIGQUIT edge stream has $post_quit lines, want $want"
echo "serve-smoke: SIGQUIT dumped $(wc -l <"$tmp/flight.dump" | tr -d ' ') flight lines; server still serving"

# 8. SIGINT drains and exits 0; the -metrics-out snapshot lands.
kill -INT "$srv_pid"
rc=0
wait "$srv_pid" || rc=$?
srv_pid=
[ "$rc" = 0 ] || fail "server exited $rc after SIGINT"
[ -s "$tmp/metrics.json" ] || fail "-metrics-out snapshot missing or empty"
grep -q 'serve.http.requests' "$tmp/metrics.json" || fail "-metrics-out lacks serve metrics"

# 8b. The access log carries the correlation identity for every request
# (the buffered file sink must have been flushed on drain), and the
# timeline journal's job lane carries the submitted trace id.
[ -s "$tmp/access.log" ] || fail "access log missing or empty"
grep -q 'req_id=smoke-req-1' "$tmp/access.log" || fail "access log lacks the client request id"
grep -q "trace_id=$trace_id" "$tmp/access.log" || fail "access log lacks the client trace id"
grep -q 'route=jobs.submit' "$tmp/access.log" || fail "access log lacks route labels"
[ -s "$tmp/journal.log" ] || fail "timeline journal missing or empty"
grep -q "cat=job .*trace_id=$trace_id" "$tmp/journal.log" || fail "journal job lane lacks the trace id"
echo "serve-smoke: access log and journal carry request/trace ids"

# 8c. The drain left a final flight dump (overwriting the SIGQUIT one)
# that records the shutdown sequence itself.
grep -q 'cat=serve ev="drain begin"' "$tmp/flight.dump" || fail "final flight dump lacks the drain trail"
echo "serve-smoke: final flight dump records the drain"

echo "serve-smoke: PASS"
