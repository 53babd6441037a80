#!/usr/bin/env bash
# Builds the system benchmark from the sources of the checkout it is run
# in and runs it with the given arguments, for example
#
#   bash bench/run.sh --workload fig9-sweep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay in .bench_build under that root; the build is offline
# and uses the local toolchain only.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C bench build -o "$out/rtdvs-sysbench" .
exec "$out/rtdvs-sysbench" "$@"
