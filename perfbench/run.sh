#!/usr/bin/env bash
# Builds fsmserve and the benchmark from this checkout, then runs one
# benchmark pass. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload run-large --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/fsmserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dpfsm checkout" >&2
	exit 2
fi
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPROXY=off GOWORK=off \
	GOTOOLCHAIN=local GOFLAGS=
go build -trimpath -o "$out/fsmserve" ./cmd/fsmserve
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -fsmserve "$out/fsmserve" -out "$out/runs" "$@"
