#!/usr/bin/env bash
# Builds axmld and the benchmark program from the checkout's sources, then runs
# one benchmark workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload exchange-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS="-mod=readonly -buildvcs=false"
export GOWORK=off
export CGO_ENABLED=0

(cd "$here" && go build -o "$out/axmld" axml/cmd/axmld && go build -o "$out/perfbench" .)
exec "$out/perfbench" -axmld "$out/axmld" -work "$out/runs" "$@"
