#!/usr/bin/env bash
# Builds xpeserve and the servebench load generator from the checkout in
# the current directory, then runs one benchmark pass:
#
#   bash servebench/run.sh --workload docbook-broad --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout (binaries, the Go build cache, server logs, span files).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/xpeserve" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the repository root (needs go.mod, cmd/xpeserve and servebench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/xpeserve" ./cmd/xpeserve
(cd "$root/servebench" && go build -o "$out/bin/servebench" .)

exec "$out/bin/servebench" -root "$root" -server "$out/bin/xpeserve" "$@"
