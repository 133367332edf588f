#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments
# given; BENCHMARK.json's command. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload stream_64 --seed 1 --seconds 10 --trace 0
#
# Everything it writes — the Go build cache, the go command's own
# configuration and telemetry counters, the binary, temporary files and
# the span files of a traced run — stays under the build directory inside
# the checkout (.bench_build, or CARGO_TARGET_DIR if set).
set -euo pipefail

# Without the module there is nothing to build: say so and start nothing.
if [ ! -f go.mod ] || [ ! -d mpf ]; then
	echo "benchmark/run.sh: no go.mod and mpf/ here; run it from the root of a checkout of the repository" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config/go/telemetry" "$build/tmp"

# The go command's telemetry is off: in any other mode its first run
# against a new configuration directory starts a detached child of its
# own that outlives the command, and this script may leave no process
# behind.
echo off >"$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/mpf-benchmark" ./benchmark

exec "$build/mpf-benchmark" "$@"
