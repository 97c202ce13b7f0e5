#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; the flags go to the benchmark, for example
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary, the search workload's
# index and the traced run's span files all stay under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
go build -C perfbench -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
