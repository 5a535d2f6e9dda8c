#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash bench/run.sh --workload up-stream --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# module and config directories) stays under the build directory:
# $CARGO_TARGET_DIR when set, .bench_build otherwise, relative to the
# repository root. Arguments are passed to the benchmark unchanged.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac

export GOCACHE="$build/go/cache" GOTMPDIR="$build/go/tmp" GOPATH="$build/go/path"
export XDG_CONFIG_HOME="$build/go/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$GOPATH" "$XDG_CONFIG_HOME"

go -C bench build -o "$build/es2-bench" .
exec "$build/es2-bench" "$@"
