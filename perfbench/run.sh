#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it; every
# argument is passed through (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload jobs-open --seed 1 --seconds 10 --trace 0
set -euo pipefail

mkdir -p "${CARGO_TARGET_DIR:-.bench_build}/perfbench"
out="$(cd "${CARGO_TARGET_DIR:-.bench_build}/perfbench" && pwd)"
# Keep Go's caches inside the checkout and never fetch a toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
