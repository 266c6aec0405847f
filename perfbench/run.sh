#!/usr/bin/env bash
# Builds the benchmark and prophetd from the sources of the checkout it is
# run in, then runs one workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload transform --seed 1 --seconds 25 --trace 0
#
# Every build product and Go cache stays under .bench_build in the
# checkout. Build output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
# The Go toolchain keeps its config and telemetry under the user config
# directory; point that into the build directory too.
export GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$build/config"

go build -o "$build/prophetd" ./cmd/prophetd >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -prophetd "$build/prophetd" -spans-dir "$build" "$@"
