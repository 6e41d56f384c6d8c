#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and span files stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench"
(
	cd "$root/perfbench"
	GOCACHE="$out/perfbench/gocache" GOMODCACHE="$out/perfbench/gomodcache" \
		GOPATH="$out/perfbench/gopath" XDG_CONFIG_HOME="$out/perfbench/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/perfbench/perfbench" .
)
BENCH_OUT="$out/perfbench" exec "$out/perfbench/perfbench" "$@"
