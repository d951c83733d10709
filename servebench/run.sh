#!/usr/bin/env bash
# Builds `rulekit` and the serving benchmark from this checkout, then
# runs one benchmark invocation with the given arguments, e.g.
#
#   bash servebench/run.sh --workload read_hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# inside the checkout: binaries and the Go build cache go to
# .bench_build/, run directories and span dumps to .bench_out/.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rulekit" ]]; then
	echo "servebench: run from the repository root (go.mod and cmd/rulekit not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/rulekit" ./cmd/rulekit
(cd servebench && go build -o "$build/servebench" .)
exec "$build/servebench" -server "$build/rulekit" -out "$root/.bench_out" "$@"
