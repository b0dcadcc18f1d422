#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program from
# source into .bench_build/ (build cache included, so nothing is written
# outside the checkout) and runs it from the checkout root.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$root/.bench_build/tracybench" .
exec "$root/.bench_build/tracybench" "$@"
