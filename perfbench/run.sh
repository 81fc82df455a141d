#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span files) stays under .bench_build/
# in that directory, and the module cache is never consulted: the
# benchmark module resolves the repository through a local replace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
