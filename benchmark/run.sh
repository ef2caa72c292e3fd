#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root: bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
# Everything the toolchain writes stays under the checkout.
GOCACHE=$build/gocache GOMODCACHE=$build/gomod XDG_CONFIG_HOME=$build/config \
GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local \
	go build -C benchmark -o "$build/dhqpbench" .
exec "$build/dhqpbench" "$@"
