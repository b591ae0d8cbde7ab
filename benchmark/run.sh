#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash benchmark/run.sh --workload store-a --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write —
# Go's build cache, the binary, scratch images, traces — goes under
# .bench_build/ in that checkout; nothing outside it is touched.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "benchmark/run.sh: run from the root of a checkout that holds the leed module (go.mod, internal/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/leedbench" ./benchmark
exec "$build/leedbench" "$@"
