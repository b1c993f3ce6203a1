#!/usr/bin/env bash
# Builds the benchmark program and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash bench/run.sh -workload drbg-4k -seed 1 -seconds 13 -trace 0
#
# Every build artifact, including the Go build cache, stays in
# .bench_build under the repository root.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build"
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
