#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with every
# argument passed on, e.g.
#
#   bash perfbench/run.sh --workload rest-fk --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build in the root, so nothing is read from or
# written to the rest of the machine beyond the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
