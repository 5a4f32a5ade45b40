#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it is run in and runs
# it with the given arguments:
#
#	bash campaignbench/run.sh --workload paper-cold --seed 7 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binary, the
# per-run temporary store and artifacts (removed before it exits) and
# the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
# The benchmark's only dependency is the checkout itself (a directory
# replace), so the module proxy is never needed.
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/campaignbench" build -o "$out/campaignbench" . >&2
exec "$out/campaignbench" -root "$root" "$@"
