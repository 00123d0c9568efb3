#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through (--workload, --seed, --seconds, --trace).
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and run artefacts all stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
