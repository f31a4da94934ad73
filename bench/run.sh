#!/usr/bin/env bash
# Builds epbench from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload sweep-warm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay in .bench_build/ at the root; output files go under
# bench/out/. The build needs the repository's own module one directory
# above bench/ (go.mod replaces energyprop with ..), so a copy of bench/
# alone fails here with a non-zero exit.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off CGO_ENABLED=0

cd "$root/bench"
go build -buildvcs=false -o "$build/epbench" ./epbench
exec "$build/epbench" "$@"
