#!/usr/bin/env bash
# Builds bench/hwbench into .bench_build/ and runs it from the repository
# root with the given arguments. BENCHMARK.json names this script as the
# benchmark command. Everything the Go toolchain writes (build cache, module
# cache, its own configuration) is pointed inside .bench_build/, so a run
# reads and writes only inside the checkout, and nothing is downloaded.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/hwbench" ./hwbench
exec "$build/hwbench" "$@"
