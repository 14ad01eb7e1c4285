#!/usr/bin/env bash
# Builds the SODA benchmark from this checkout's sources and runs
# it; every build and run artefact stays under .bench_build.
#
#   bash sodabench/run.sh --workload kv-small --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go -C "$root/sodabench" build -o "$out/sodabench" .
exec "$out/sodabench" --workdir "$out" "$@"
