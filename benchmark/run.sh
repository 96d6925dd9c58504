#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash benchmark/run.sh --workload eval-matrix --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout
# (Go build cache, binary, span files, scratch caches). The last line of
# standard output is the JSON result; see benchmark/NOTES.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The fingerprint's git lookup must not search above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
(cd benchmark && go build -o "$out/fxbench" .)
exec "$out/fxbench" -out "$out/run" "$@"
