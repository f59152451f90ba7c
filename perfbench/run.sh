#!/usr/bin/env bash
# Builds wrhtsim, wrhtd and the benchmark from source into .bench_build
# under the current directory (the repository root), then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/wrhtsim" ./cmd/wrhtsim >&2
go build -o "$out/wrhtd" ./cmd/wrhtd >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
