#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags. Run it from the
# root of a checkout:
#
#   bash bench/run.sh --workload cli-din --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and every binary stay under
# .bench_build in the checkout; nothing is fetched from the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
