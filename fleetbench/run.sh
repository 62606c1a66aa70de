#!/usr/bin/env bash
# Builds fleetbench from source into .bench_build/ at the repository
# root, then runs it from the root with the given arguments:
#
#   bash fleetbench/run.sh --workload incr-quant --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, binary, DiskStore
# segment logs) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
cd "$root"
exec "$out/fleetbench" --workdir "$out/fleetbench-data" "$@"
