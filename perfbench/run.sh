#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with
# the given arguments. Run from the root of the checkout:
#
#	bash perfbench/run.sh --workload deliver --seed 1 --seconds 15 --trace 0
#
# Every build artifact (the Go build cache, temporary files and the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
