#!/usr/bin/env bash
# Builds xqserve and the benchmark from source, then runs the benchmark with
# the given arguments. Run it from the root of the repository:
#
#   bash e2ebench/run.sh --keyword-rate 100 --workload xmark-mix --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the trace reports go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/e2ebench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$out/xqserve" ./cmd/xqserve
(cd e2ebench && go build -o "$out/e2ebench/e2ebench" .)

exec "$out/e2ebench/e2ebench" -xqserve "$out/xqserve" -out "$out/e2ebench" "$@"
