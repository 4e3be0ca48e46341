#!/usr/bin/env bash
# Builds and runs ctbench from the repository root:
#
#   bash bench/run.sh --workload pool --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1                 # every workload, both phases
#
# Everything the run builds or writes (Go build cache, binaries, daemon
# caches and logs, span files) stays under .bench_build/ at the root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

cd "$root/bench"
go build -o "$out/bin/ctbench" ./ctbench
exec "$out/bin/ctbench" -workdir "$out" "$@"
