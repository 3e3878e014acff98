#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload st-fptas --seed 1 --trace 0
#
# Build caches, the binary, state directories and trace output all live in
# .bench_build/ under the current directory, so nothing is written elsewhere.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
