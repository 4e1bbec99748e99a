#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (a no-op once cached) and runs it
# from there with the driver's arguments. Everything the Go toolchain writes
# — build cache, module cache, temp files, its own telemetry — is pointed
# inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$here" && go build -o "$build/diasbench" .)
cd "$root"
exec "$build/diasbench" "$@"
