#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload mls-d300 --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, traces and scratch files all stay in
# the build directory ($CARGO_TARGET_DIR when set, else .bench_build), so
# nothing is written outside the checkout. The first run compiles the
# standard library into that cache.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
