#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload mutation --seed 1 --seconds 10 --trace 0
#
# The build output, the Go build cache and the toolchain's own config
# and telemetry files all go under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so building and running
# write nothing outside the checkout and never touch the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOENV=off GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/gadt-bench" .)
cd "$root"
exec "$build/gadt-bench" "$@"
