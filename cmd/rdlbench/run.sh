#!/usr/bin/env bash
# Builds cmd/rdlbench from the source tree it sits in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/rdlbench/run.sh --workload dense5 --seed 1 --seconds 27 --trace 0
#
# Every build product, including the Go build cache, stays under
# .bench_build/ in the current directory. The build needs no network: the
# benchmark imports only the standard library and the router packages.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off CGO_ENABLED=0
(cd "$root/cmd/rdlbench" && go build -o "$out/rdlbench" .)
exec "$out/rdlbench" "$@"
