#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, with the benchmark's flags:
#
#   bash perfbench/run.sh --workload single-turn --seed 1 --seconds 28 --trace 0
#
# Everything the build writes (Go build cache, GOPATH, the toolchain's
# config directory, the binary) and the benchmark's per-run scratch stay
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
