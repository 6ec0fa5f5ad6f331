#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of the repository:
#
#   bash benchmark/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the Go toolchain's own state all go
# under $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
export XDG_CONFIG_HOME="$out/config" # go's telemetry and env files
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -C benchmark -o "$out/panrucio-benchmark" .
exec "$out/panrucio-benchmark" "$@"
