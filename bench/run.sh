#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root; see bench/README.md for the flags.
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the binary, Go's build cache and Go's config (which
# holds its telemetry counters). The module builds offline: its only
# dependency is the repository itself, through a replace directive.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
