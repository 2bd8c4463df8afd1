#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload edge-suppress --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the durable
# shards' data directories and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

# The program is a module of its own that builds against the enclosing
# repository (replace streamkf => ../); outside a checkout this fails
# and the script exits non-zero before printing a result.
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

commit=unknown
dirty=unknown
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then dirty=true; else dirty=false; fi
fi

exec "$out/perfbench" --workdir "$out/run" --commit "$commit" --dirty "$dirty" "$@"
