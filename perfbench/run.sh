#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload compile-suite --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and span
# files all stay under ${CARGO_TARGET_DIR:-.bench_build}, so the run writes
# nothing outside the checkout. The build is offline: the benchmark
# module's only dependency is the repository itself.
set -euo pipefail

repo=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$repo/$out ;;
esac
mkdir -p "$out/perfbench/tmp"

export GOCACHE=$out/perfbench/gocache
export GOTMPDIR=$out/perfbench/tmp
# The go command keeps telemetry counters under the user config directory
# and a module cache under GOPATH; both move into the checkout too.
export XDG_CONFIG_HOME=$out/perfbench/config
export GOPATH=$out/perfbench/gopath
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C perfbench build -trimpath -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" --repo "$repo" --out "$out/perfbench" "$@"
