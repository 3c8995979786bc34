#!/usr/bin/env bash
# Builds the benchmark (this directory's Go module, which uses the
# simulator in the parent directory) and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload campaign-s256 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, spans) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
