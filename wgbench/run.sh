#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash wgbench/run.sh --workload paper-matrix --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run leave behind stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the temporary stores
# and the trace files.
set -euo pipefail
out="$(pwd)/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$src" && go build -o "$out/wgbench" .)
exec "$out/wgbench" "$@"
