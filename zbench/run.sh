#!/usr/bin/env bash
# Builds the zbench benchmark from the checkout it is run in and executes it
# with the given arguments. Run from the repository root:
#
#   bash zbench/run.sh --workload trace-kernel --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the store, spans) stays under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

go -C "$here" build -o "$out/zbench" .
exec "$out/zbench" -workdir "$out" "$@"
