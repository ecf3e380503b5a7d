#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from any directory.
# Everything the build and the run write — the Go toolchain's caches and
# configuration, the binary, scratch files — goes under .bench_build/ at
# the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
	go -C "$here" build -o "$out/bench" .
cd "$root"
exec "$out/bench" -tmp .bench_build/tmp "$@"
