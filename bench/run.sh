#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root, keeping every
# file the Go toolchain writes (build cache, temp files, config) inside
# .bench_build/ of the checkout:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Arguments are passed to the benchmark unchanged; see bench/README.md.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
