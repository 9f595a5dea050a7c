#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# The benchmark is the package hotleakage/bench of the repository's module.
# Run from the repository root:
#
#   bash bench/run.sh -workload paper-all -seed 1 -seconds 15 -trace 0
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary and the temporary
# stores. The build is plain `go build` with PGO off.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off XDG_CONFIG_HOME="$out/config"

go build -pgo=off -o "$out/bench" ./bench
exec "$out/bench" "$@"
