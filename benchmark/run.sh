#!/usr/bin/env bash
# run.sh — the command BENCHMARK.json names. It is `go run ./benchmark`
# with the Go toolchain's own files (build cache, temporary files,
# module cache) kept inside the checkout, under .bench_build/, so a run
# reads and writes nothing outside the directory it was started in.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d cmd/ravencached || ! -d cmd/ravenrouter ]]; then
    echo "benchmark/run.sh: not a checkout of the repository (go.mod, cmd/ravencached or cmd/ravenrouter is missing); there is nothing to build and measure" >&2
    exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
