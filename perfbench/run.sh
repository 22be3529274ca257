#!/usr/bin/env bash
# Builds the energyd benchmark from the enclosing checkout and runs it with
# the arguments given, from the checkout root:
#
#   bash perfbench/run.sh --workload olap-sql --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout (or $CARGO_TARGET_DIR when set), so nothing is written outside it.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's settings and telemetry files there too.
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOTMPDIR=$out XDG_CONFIG_HOME=$out/config
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
