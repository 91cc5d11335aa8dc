#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from the
# checkout it sits in, with a build cache inside that checkout, and runs
# it with the arguments given. Nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-buildvcs=false
mkdir -p "$root/.bench_build/bin"
(cd "$root/benchmark" && go build -o "$root/.bench_build/bin/hbbenchmark" .)
exec "$root/.bench_build/bin/hbbenchmark" -root "$root" "$@"
