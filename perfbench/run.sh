#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything it writes (the Go build cache, the binary, the stores a run
# creates and removes) stays under .bench_build in the current directory.
# The benchmark module replaces the lowlat module with the parent
# directory, so outside a full checkout the build fails and so does this
# script.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# The go command keeps its caches, module downloads and telemetry
# counters under these; point them all into the build directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out/work" "$@"
