#!/usr/bin/env bash
# Builds the NaLIX service benchmark from the checkout's sources and runs
# it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload study-73k --seed 1 --seconds 5 --trace 0
#
# Build products and the Go build cache stay under .bench_build in the
# checkout; nothing is fetched (the module has no dependencies outside
# the repository).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root holds no nalix sources to build" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$build/nalixbench" . >&2
exec "$build/nalixbench" "$@"
