#!/usr/bin/env bash
# Builds the ATIS benchmark from the sources of the checkout it sits in and
# runs it, passing every argument through:
#
#   bash atisbench/run.sh --workload commute --seed 1 --seconds 16 --trace 0
#
# Everything the build leaves behind (Go build cache, binary, span dumps)
# goes under .bench_build/ at the checkout root. The benchmark module
# replaces the engine module with the parent directory, so outside a full
# checkout the build fails and no result is printed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go -C "$root/atisbench" build -o "$out/atisbench" .
cd "$root"
exec "$out/atisbench" "$@"
