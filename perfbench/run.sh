#!/usr/bin/env bash
# Builds butterflyd and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-apps --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -o "$build/butterflyd" ./cmd/butterflyd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -butterflyd "$build/butterflyd" -out "$build" -root "$root" "$@"
