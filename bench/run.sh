#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload zipf.rw --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes to .bench_build at
# the root of the checkout, and everything a run writes to bench/out; both are
# git-ignored. The harness is its own module (bench/go.mod) that imports the
# repository's packages through a replace directive, so it needs the checkout
# around it and fails to build without one.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" .
exec "$build/bench" "$@"
