#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build the
# harness from source with every Go cache inside the checkout — the
# benchmark may write nowhere else — and run it with the driver's flags.
# People can use `go run ./bench ...` directly.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
