#!/usr/bin/env bash
# Builds cubemark from source into .bench_build/ of the current directory
# (the root of a checkout) and runs it with the given arguments. Nothing
# is read or written outside the checkout: the Go build cache lives in
# .bench_build too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go build -C "$root/benchmarks/cubemark" -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$out/cubemark" .
exec "$out/cubemark" "$@"
