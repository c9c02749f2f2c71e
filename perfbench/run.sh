#!/usr/bin/env bash
# Builds the sapserved benchmark from the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload cold-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, server stores, span files and the
# run history the steadiness report reads.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
