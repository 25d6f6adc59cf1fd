#!/usr/bin/env bash
# Build file of the benchmark, and the command BENCHMARK.json names.
# It compiles ./benchmark (package main in module hpfcg, so it can
# import hpfcg/internal/...) into .bench_build/ at the root of the
# checkout and runs it with the arguments it was given. The Go build
# cache, GOPATH and the go command's own config directory live in
# .bench_build/ too, so nothing outside the checkout is written and
# only the Go toolchain is read. The first build in a checkout compiles
# the standard library (about 20 s on two cores); later runs only
# re-check the cache.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $(pwd) is not a checkout of the hpfcg module (no go.mod, no internal/)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$build/hpfbench" ./benchmark
exec "$build/hpfbench" "$@"
