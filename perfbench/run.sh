#!/usr/bin/env bash
# Builds perfbench from the source tree around it and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-snapshot --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the compiler's temporary files
# stay in .bench_build/ (or $CARGO_TARGET_DIR when set), inside the
# working tree.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -o "$out/perfbench" -ldflags "-X main.commit=$commit" .
exec "$out/perfbench" "$@"
