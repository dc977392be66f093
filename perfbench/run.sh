#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload star-profile-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# data directories all stay inside the checkout (.bench_build, .bench_data).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
