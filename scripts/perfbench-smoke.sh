#!/usr/bin/env bash
# perfbench-smoke.sh — runs the repository benchmark's own tests
# (`go test ./...` in perfbench/, its own module) in the environment
# perfbench/run.sh builds in: Go cache, temporary files and module path
# under .bench_build/, no network, no cgo. The tests smoke-run every
# workload through the public API and replay each layer's functions, so
# a change that renames or reshapes anything the benchmark calls fails
# here rather than in a benchmark run. `make perfbench-smoke` runs it;
# it is stage 14 of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off CGO_ENABLED=0

cd perfbench
go test ./...
