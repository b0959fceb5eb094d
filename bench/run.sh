#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -seed 1                 # all workloads, both modes
#   bash bench/run.sh --workload batch --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh diff set1.jsonl set2.jsonl
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the go command's telemetry and module
# directories, temporary files, the binaries and the servers' data
# directories.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
