#!/usr/bin/env bash
# Builds the benchmark and the stateskipd daemon from the sources of the
# checkout it runs in, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload atpg_core --seed 1 --seconds 15 --trace 0
#
# Build products, the Go build cache, the go command's configuration and
# telemetry, daemon journals, determinism pins and result records all stay
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/stateskipd ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/stateskipd not found)" >&2
	exit 2
fi
state="$PWD/.bench_build"
mkdir -p "$state/gocache" "$state/tmp" "$state/bin" "$state/config" "$state/gopath"
export GOCACHE="$state/gocache" GOTMPDIR="$state/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export XDG_CONFIG_HOME="$state/config" GOPATH="$state/gopath"

go build -o "$state/bin/stateskipd" ./cmd/stateskipd >&2
go -C perfbench build -o "$state/bin/perfbench" . >&2
exec "$state/bin/perfbench" -state "$state" -daemon "$state/bin/stateskipd" "$@"
