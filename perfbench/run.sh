#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload swarm-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binary,
# state directories, span files) stays under .bench_build/ at the root
# of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -state "$out/state" "$@"
