#!/usr/bin/env bash
# Builds kronbip and the perfbench load generator, then runs one
# benchmark run.  Run from the repository root:
#
#   bash perfbench/run.sh --workload chain-bin --seed 1 --seconds 20 --trace 0
#
# Both binaries are built before any timing starts; build outputs, the
# Go build cache, run records and traces all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/kronbip" ]]; then
  echo "perfbench: run from the root of a kronbip checkout" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/kronbip" ./cmd/kronbip
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -kronbip "$out/bin/kronbip" -out "$out/perfbench" "$@"
