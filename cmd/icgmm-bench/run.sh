#!/usr/bin/env bash
# Builds icgmm-bench from source and runs it with the given arguments, e.g.
#
#   bash cmd/icgmm-bench/run.sh -workload paper-dlrm -runs 3
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the repository root, wherever the script is run from.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/cmd/icgmm-bench" build -o "$build/icgmm-bench" .
exec "$build/icgmm-bench" "$@"
