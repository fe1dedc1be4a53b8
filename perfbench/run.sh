#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 25 --trace 0
#
# Every build and run artifact (Go build cache, binary, generated inputs,
# span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
