#!/usr/bin/env bash
# Builds the platform benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload submit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, fleet
# data directories, traces) stays under .bench_build/ in the current
# directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
