#!/usr/bin/env bash
# End-to-end benchmark of currencyd. Run from the root of a checkout:
#
#   bash e2ebench/run.sh --workload patch-stream --seed 1 --seconds 30 --trace 0
#
# It builds cmd/currencyd and the load generator (this directory, a module of
# its own) into .bench_build/ — with the Go build cache kept there too, so
# nothing is written outside the checkout — and then runs one invocation.
# The last line of standard output is the JSON result; see README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" CGO_ENABLED=0

go build -o "$out/currencyd" ./cmd/currencyd >&2
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -server "$out/currencyd" -out "$out" "$@"
