#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs one
# workload. Run from the root of a tornado checkout:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout (go build cache, binary, result records, traces).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a tornado checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
