#!/usr/bin/env bash
# Builds cmd/mapcompd and the benchmark from this checkout, then runs the
# benchmark with the given flags. Run from the repository root:
#
#   bash sockbench/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the daemons' data
# directories live under .bench_build/, so a run writes nothing outside
# the checkout and never touches the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mapcompd || ! -f sockbench/go.mod ]]; then
	echo "sockbench: run from the repository root (needs go.mod, cmd/mapcompd and sockbench/)" >&2
	exit 2
fi

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

go build -o "$out/bin/mapcompd" ./cmd/mapcompd
go -C sockbench build -o "$out/bin/sockbench" .
exec "$out/bin/sockbench" "$@"
