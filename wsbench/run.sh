#!/usr/bin/env bash
# Builds the WS-Dispatcher benchmark from the checkout's sources and runs
# it. Run from the repository root; every build and run artifact stays
# under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/wsbench" .)
if [ -z "${WSBENCH_COMMIT:-}" ] && command -v git >/dev/null && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	WSBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
	export WSBENCH_COMMIT
fi
exec "$out/wsbench" "$@"
