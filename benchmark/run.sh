#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh [flags].
#
# Everything the build writes stays inside the checkout, under
# .bench_build (build cache, temporary files and the binary).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

# Keep the go command's own files in the checkout too: build cache,
# temporary files, module cache and its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off

# The benchmark is its own module; "replace smarteryou => ../" in its
# go.mod makes it build against this checkout, so without the rest of
# the repository this fails, as it must.
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/smarteryou-benchmark" .
exec "$build/smarteryou-benchmark" "$@"
