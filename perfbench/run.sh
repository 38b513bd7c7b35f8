#!/usr/bin/env bash
# Builds and runs smoothd's end-to-end benchmark from the repository
# root. Arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload solve-mix --seed 1 --seconds 15 --trace 0
#
# Every build artefact and cache stays under .bench_build in the current
# directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/service || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (go.mod, internal/service and perfbench/ must be here)" >&2
  exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOENV=off

(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
