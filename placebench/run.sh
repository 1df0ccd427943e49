#!/usr/bin/env bash
# Builds the placemon benchmark from the checkout it sits in and runs it.
#
#   bash placebench/run.sh --workload ingest-fanout --seed 1 --seconds 45 --trace 0
#
# Run it from the checkout root. The binary, the Go build cache and every
# file a run writes stay under .bench_build/ there; nothing is fetched.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd placebench && go build -o "$out/placebench" .)
exec "$out/placebench" -workdir "$out" "$@"
