#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload net-rtt --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the go command's own config and
# telemetry, the benchmark binary and the trace artifacts. The toolchain
# is pinned to the local one and module downloads are off, so the build
# never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
