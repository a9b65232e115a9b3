#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Every build artifact and cache stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload pipeline|label|serve|all --seed N --seconds S --trace 0|1
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTMPDIR="${build}/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off GOFLAGS=
mkdir -p "${GOCACHE}" "${GOPATH}" "${GOTMPDIR}"
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
