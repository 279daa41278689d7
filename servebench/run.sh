#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash servebench/run.sh --workload dialogue --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache (and the go command's other state,
# through GOPATH and XDG_CONFIG_HOME), the binary, the durable workload's
# data directories and the run records.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
