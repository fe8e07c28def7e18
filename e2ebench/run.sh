#!/usr/bin/env bash
# Builds spvserve and the benchmark from this checkout's sources, then
# runs the benchmark with the given arguments, e.g.
#   bash e2ebench/run.sh --workload mixed-hot --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# prepared inputs all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/spvserve" ./cmd/spvserve >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --server "$out/spvserve" --cache "$out/e2ebench-cache" "$@"
