#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload scale-rr-500 --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (the binary, the Go build cache, temporary
# files) goes under .bench_build/ in the working tree, so a fresh checkout
# pays one cold build and later invocations reuse it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/tokenflow-bench" .
exec "$out/tokenflow-bench" "$@"
