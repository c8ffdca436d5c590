#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; everything the build writes stays in .bench_build.
#
#   bash perfbench/run.sh --workload mucfuzz-gcc --seed 1 --seconds 30 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/engine ]]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry,
# settings) in the build directory too.
HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOCACHE="$build/gocache" \
	GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
