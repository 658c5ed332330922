#!/usr/bin/env bash
# distgen_smoke.sh — end-to-end smoke test for `kronbip dist-gen`.
#
# Exercises distributed 2D-blocked generation against a real local
# fleet, with nothing but the binary, curl and a shell:
#   1. start three `kronbip serve` replicas on ephemeral ports
#   2. run `kronbip dist-gen` across them (explicit grid, audit on,
#      a pinned request id), merging to a file
#   3. the merged line count equals the closed-form |E_C| reported by
#      /v1/truth for the same spec, with no duplicate edges, and the
#      fleet's 4-cycle count (the leases' Σ◊ trailers / 4, printed as
#      four_cycles=) equals /v1/truth's global_four_cycles
#   4. a second dist-gen run produces a byte-identical merged file —
#      distribution is a deterministic permutation, not a race outcome;
#      then the same two checks for a k=2 chain (repeated -factor)
#      leased as binary wire frames over a grid with several column
#      stripes, audit on: the chain block walker behind real leases,
#      with the fleet's four_cycles checked against /v1/truth as well
#   5. SIGINT drains every replica to a clean exit 0
#   6. every block was leased under the run's request id (the replicas'
#      access logs — flushed by the drain — carry route=leases lines
#      with req_id=<run id>), and all three replicas took part
#
# Usage: scripts/distgen_smoke.sh   (from anywhere inside the repo)
# Set SMOKE_DIR to keep the scratch dir (replica logs, merged output)
# for artifact collection instead of a throwaway mktemp.
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
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  [ -n "$keep_tmp" ] || rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
  echo "distgen-smoke: FAIL: $*" >&2
  echo "--- dist-gen log ---" >&2
  cat "$tmp/distgen.log" >&2 || true
  for i in 1 2 3; do
    echo "--- replica $i log ---" >&2
    cat "$tmp/serve$i.log" >&2 || true
  done
  exit 1
}

jfield() { # jfield <name> — prints the value of "name": <value>
  sed -n 's/.*"'"$1"'": *"\{0,1\}\([^",]*\)"\{0,1\}.*/\1/p' | head -1
}

fourcycles() { # fourcycles <log> — the four_cycles= value of a dist-gen merge summary
  sed -n 's/.*dist-gen: merged .* four_cycles=\([0-9]*\) .*/\1/p' "$1" | head -1
}

echo "distgen-smoke: building kronbip"
go build -o "$tmp/kronbip" ./cmd/kronbip

# 1. Three replicas on ephemeral ports, each with an access log so the
# lease traffic is attributable per replica afterwards.
workers=()
for i in 1 2 3; do
  "$tmp/kronbip" serve -addr 127.0.0.1:0 -workers 1 \
    -access-log "$tmp/access$i.log" 2>"$tmp/serve$i.log" &
  pids+=($!)
done
for i in 1 2 3; do
  addr=
  for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$tmp/serve$i.log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "${pids[$((i - 1))]}" 2>/dev/null || fail "replica $i died during startup"
    sleep 0.1
  done
  [ -n "$addr" ] || fail "replica $i never reported its listen address"
  workers+=("http://$addr")
done
echo "distgen-smoke: fleet up at ${workers[*]}"

# 2. Distributed run: crown6 selfloop square over a 4x2 grid (8 blocks
# across 3 replicas forces real distribution), online audit on.
spec_factor=crown6 spec_seed=7 req_id=smoke-dist-1
"$tmp/kronbip" dist-gen \
  -worker "${workers[0]}" -worker "${workers[1]}" -worker "${workers[2]}" \
  -factor "$spec_factor" -mode selfloop -seed "$spec_seed" \
  -rows 4 -cols 2 -audit -request-id "$req_id" \
  -edges-out "$tmp/merged.tsv" 2>"$tmp/distgen.log" \
  || fail "dist-gen exited non-zero"
grep -q 'dist-gen: merged' "$tmp/distgen.log" || fail "dist-gen printed no merge summary"
grep -q 'audit checks=' "$tmp/distgen.log" || fail "dist-gen printed no audit summary"
grep -q 'violations=0' "$tmp/distgen.log" || fail "audit reported violations"

# 3. Merged totals against the fleet's own closed form.
curl -fsS "${workers[0]}/v1/truth?factor=$spec_factor&mode=selfloop&seed=$spec_seed" >"$tmp/truth.json"
want=$(jfield num_edges <"$tmp/truth.json")
[ -n "$want" ] || fail "/v1/truth returned no num_edges"
got=$(wc -l <"$tmp/merged.tsv" | tr -d ' ')
[ "$got" = "$want" ] || fail "merged stream has $got lines, /v1/truth says $want"
dups=$(sort "$tmp/merged.tsv" | uniq -d | head -3)
[ -z "$dups" ] || fail "merged stream carries duplicate edges: $dups"
echo "distgen-smoke: $got merged edges match closed-form |E_C|=$want, no duplicates"
want4=$(jfield global_four_cycles <"$tmp/truth.json")
[ -n "$want4" ] || fail "/v1/truth returned no global_four_cycles"
got4=$(fourcycles "$tmp/distgen.log")
[ "$got4" = "$want4" ] || fail "fleet reports four_cycles=${got4:-nothing}, /v1/truth says $want4"
echo "distgen-smoke: fleet's four_cycles=$got4 (leases' Σ◊ / 4) matches /v1/truth"

# 4. Determinism: a re-run merges to byte-identical output.
"$tmp/kronbip" dist-gen \
  -worker "${workers[0]}" -worker "${workers[1]}" -worker "${workers[2]}" \
  -factor "$spec_factor" -mode selfloop -seed "$spec_seed" \
  -rows 4 -cols 2 -edges-out "$tmp/merged2.tsv" 2>>"$tmp/distgen.log" \
  || fail "second dist-gen run exited non-zero"
cmp -s "$tmp/merged.tsv" "$tmp/merged2.tsv" \
  || fail "two dist-gen runs produced different merged bytes"
echo "distgen-smoke: re-run is byte-identical (deterministic merge order)"

# 4b. A k=2 chain through the chain block walker: three factors,
# binary wire frames, and a 3x3 grid whose column stripes slice the
# last factor's (crown4's) edge list.  The merge summary's edge count
# must equal the chain's closed form, and a re-run must be
# byte-identical.
chain_args=(-factor sf16x32x80 -factor crown4 -mode selfloop -seed "$spec_seed"
  -rows 3 -cols 3 -format bin)
for run in 1 2; do
  "$tmp/kronbip" dist-gen \
    -worker "${workers[0]}" -worker "${workers[1]}" -worker "${workers[2]}" \
    "${chain_args[@]}" -audit -edges-out "$tmp/chain$run.bin" 2>"$tmp/distgen-chain$run.log" \
    || { cat "$tmp/distgen-chain$run.log" >>"$tmp/distgen.log"; fail "chain dist-gen run $run exited non-zero"; }
  cat "$tmp/distgen-chain$run.log" >>"$tmp/distgen.log"
  grep -q 'violations=0' "$tmp/distgen-chain$run.log" || fail "chain run $run: audit reported violations"
done
curl -fsS "${workers[0]}/v1/truth?factor=sf16x32x80&factor=crown4&mode=selfloop&seed=$spec_seed" >"$tmp/chain-truth.json"
want=$(jfield num_edges <"$tmp/chain-truth.json")
[ -n "$want" ] || fail "/v1/truth returned no num_edges for the chain"
got=$(sed -n 's/.*dist-gen: merged \([0-9]*\) edges from 9 blocks.*/\1/p' "$tmp/distgen-chain1.log")
[ "$got" = "$want" ] || fail "chain merge summary says ${got:-nothing} edges over 9 blocks, /v1/truth says $want"
want4=$(jfield global_four_cycles <"$tmp/chain-truth.json")
got4=$(fourcycles "$tmp/distgen-chain1.log")
[ -n "$want4" ] && [ "$got4" = "$want4" ] \
  || fail "chain fleet reports four_cycles=${got4:-nothing}, /v1/truth says ${want4:-nothing}"
cmp -s "$tmp/chain1.bin" "$tmp/chain2.bin" \
  || fail "two chain dist-gen runs produced different merged bytes"
echo "distgen-smoke: k=2 chain merged $got bin edges over a 3x3 grid = closed form, four_cycles=$got4 = /v1/truth, re-run byte-identical"

# 5. Clean drain: every replica exits 0 on SIGINT (which also flushes
# the buffered access logs for the checks below).
for i in 1 2 3; do
  pid=${pids[$((i - 1))]}
  kill -INT "$pid"
  rc=0
  wait "$pid" || rc=$?
  [ "$rc" = 0 ] || fail "replica $i exited $rc after SIGINT"
  pids[$((i - 1))]=
done
echo "distgen-smoke: fleet drained clean"

# 6. Correlation + participation: all 8 blocks of the first run were
# leased under its request id, and every replica served at least one
# lease (three idle replicas all pull from an 8-block queue).
leases=$(cat "$tmp"/access?.log | grep -c "route=leases .*req_id=$req_id" || true)
[ "${leases:-0}" -ge 8 ] || fail "fleet logged $leases leases under req_id=$req_id, want >= 8"
for i in 1 2 3; do
  grep -q 'route=leases' "$tmp/access$i.log" \
    || fail "replica $i served no leases (scheduler left a replica idle)"
done
echo "distgen-smoke: $leases leases correlated under req_id=$req_id across all 3 replicas"

echo "distgen-smoke: PASS"
