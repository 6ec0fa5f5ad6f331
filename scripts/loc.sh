#!/bin/sh
# Prints the number of non-test Go lines in the module: every .go file
# except *_test.go, leaving out the benchmark module (benchmark/) and the
# build cache its runner leaves (.bench_build/). This is the line count
# ROADMAP.md tracks from change to change. Usage: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find . \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \) -prune \
	-o -type f -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l | tr -d ' '
