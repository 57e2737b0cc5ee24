#!/bin/sh
# Launcher named by BENCHMARK.json. Builds the bench driver and runs it
# from the checkout root, keeping every build artefact (Go build cache,
# binaries, work dirs, result files) under .bench_build/ in the checkout.
set -eu
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$root/.bench_build/bin"
(cd bench && go build -o "$root/.bench_build/bin/bench" .)
exec "$root/.bench_build/bin/bench" "$@"
