#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given flags from the repository root. Build outputs, caches and the default
# trace file stay under .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -buildvcs=false -o "$build/urllc-benchmark" .
exec "$build/urllc-benchmark" "$@"
