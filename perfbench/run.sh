#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload sync-paper --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. Everything the go command writes (the
# binary, the build cache, temporary files, its per-user config and
# telemetry) stays under .bench_build in the repository; nothing is
# downloaded (the benchmark module depends only on the repository's
# own module, by a local replace).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
