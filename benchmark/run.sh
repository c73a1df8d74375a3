#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given.  Everything the toolchain writes (build cache, telemetry,
# the binary) goes under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/benchmark"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$build/benchmark" .
)
cd "$root"
exec "$build/benchmark" "$@"
