#!/usr/bin/env bash
# Builds the OSARS service benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload stateless-doctor --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# temp files, the binary) and every data directory lives under
# .bench_build/ in the current directory, so nothing outside it is written.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/osars-perfbench" . >&2
exec "$build/osars-perfbench" -root "$root" "$@"
