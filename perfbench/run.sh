#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <concretize|rollout|daemon> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary and the Go build cache live
# under .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
