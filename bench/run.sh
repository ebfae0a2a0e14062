#!/usr/bin/env bash
# Builds the host-speed benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload vm-warm --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporaries, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$out/accbench" .
exec "$out/accbench" "$@"
