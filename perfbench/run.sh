#!/usr/bin/env bash
# Builds the FuseCU benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload search-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and module caches, temporary build files, the go
# command's configuration directory (where it keeps telemetry counters),
# the binary, and the span dumps of traced runs.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}/gocache" "${out}/gomodcache" "${out}/tmp" "${out}/config" "${out}/gopath"

export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOTMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOPATH="${out}/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "${here}" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" -out "${out}" "$@"
