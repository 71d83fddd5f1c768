#!/usr/bin/env bash
# Builds gca-serve and the perfbench program from the checkout in the
# current directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload dense-gca --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, server logs and span files go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gca-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a gcacc checkout" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/gca-serve" ./cmd/gca-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve "$out/bin/gca-serve" -out "$out" "$@"
