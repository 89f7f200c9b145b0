#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload lan-warm --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches and every temporary file live under
# .bench_build/ in the checkout, so a run writes nothing outside it and
# needs no network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the simulator sources are missing" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
