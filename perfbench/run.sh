#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload whatif-sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact, the Go build
# cache, and the benchmark's fingerprint ledger live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

[ -f perfbench/go.mod ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
[ -f go.mod ] || { echo "run.sh: no cxlfork module at the checkout root" >&2; exit 2; }

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/home" "$out/tmp"

# Keep the toolchain's caches, config and telemetry inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -state "$out" "$@"
