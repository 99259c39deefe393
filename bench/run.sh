#!/usr/bin/env bash
# Builds maxperf from the checkout it is run in and runs it with the
# arguments given. Everything the build writes (compiler cache, binary)
# and everything a run writes (span files) stays under .bench_build/ in
# that checkout, so a run reads and writes nothing outside it.
#
#   bash bench/run.sh --workload warm_inline --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
go build -o "$out/maxperf" ./bench/maxperf >&2
exec "$out/maxperf" "$@"
