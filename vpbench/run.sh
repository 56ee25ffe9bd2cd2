#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, for example:
#
#   bash vpbench/run.sh --workload sec3 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, the serve workload's cache
# directory) stays under .bench_build in that root, and the build never
# touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/vpbench" build -o "$out/vpbench" .
exec "$out/vpbench" "$@"
