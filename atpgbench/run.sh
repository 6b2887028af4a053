#!/usr/bin/env bash
# Builds the ATPG benchmark from the checkout's sources and runs it.
#
#   bash atpgbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root.  Everything it writes (binary, Go build
# cache, temporary result stores, span files) stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd atpgbench && go build -o "$out/atpgbench" .)
exec "$out/atpgbench" "$@"
