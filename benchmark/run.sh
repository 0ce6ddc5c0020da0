#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash benchmark/run.sh -workloads gen-heavy -seconds 20
#
# Go's build cache, temporary files and the binary stay in the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/benchmark" build -buildvcs=false -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
