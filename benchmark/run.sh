#!/bin/bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it with the caller's arguments. Every
# byte the Go toolchain writes (build cache, binary) stays under
# .bench_build/, and every byte a run writes stays under benchmark/out/.
set -eu
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/hoyan-benchmark" .)
exec "$build/hoyan-benchmark" -out "$here/out" -spec "$root/BENCHMARK.json" "$@"
