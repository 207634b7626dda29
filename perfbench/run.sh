#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, data directories, trace
# output) stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (the kadop sources are missing here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
# Flush the freshly linked binary and the previous run's deleted data
# now, so their write-back does not land on the measured fsyncs.
sync -f "$out"
exec "$out/perfbench" --out "$out" "$@"
