#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark (once per
# checkout; later calls find it up to date) and runs it with the given
# arguments. Building happens before the program starts, so it is inside
# no metric. Everything the build writes — binary, build cache, temporary
# files, the go command's own configuration and telemetry counters — stays
# under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
cd "$here"
go build -o "$build/triadbench" .
exec "$build/triadbench" "$@"
