#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-chat --seed 1 --seconds 15 --trace 0
#
# Everything it writes (the Go build cache, the binary, journals and
# traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
