#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload read_mostly --seed 1 --seconds 45 --trace 0
#   bash perfbench/run.sh --workload all        # every workload in turn
#
# Build cache, binary and run state stay under .bench_build/ in the
# checkout. Build errors go to stderr and exit non-zero, so a checkout
# without the module under test fails before printing any result.
set -euo pipefail

root=$(pwd)
bench="$root/.bench_build"
mkdir -p "$bench/gocache" "$bench/tmp"
export GOCACHE="$bench/gocache" GOTMPDIR="$bench/tmp" GOPATH="$bench/gopath"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$bench/perfbench" .) >&2

if [[ " $* " == *" --workload all "* ]]; then
	args=()
	skip=0
	for a in "$@"; do
		if ((skip)); then skip=0; continue; fi
		if [[ $a == --workload ]]; then skip=1; continue; fi
		args+=("$a")
	done
	status=0
	for w in read_mostly write_stream durable_contended; do
		"$bench/perfbench" --workload "$w" --dir "$bench/state" "${args[@]}" || status=1
	done
	exit "$status"
fi
exec "$bench/perfbench" --dir "$bench/state" "$@"
