#!/usr/bin/env bash
# Builds dbpserved and the perfbench program from the source tree it is run
# in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload sim-light --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there (Go build cache included); a rebuild happens
# only when a .go file or go.mod changed since the last one.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dbpserved || ! -d internal/sim || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/dbpserved, internal/sim and perfbench/)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

# Source fingerprint: every Go source and module file outside .bench_build.
stamp=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-64)
if [[ ! -x "$build/bin/perfbench" || ! -x "$build/bin/dbpserved" || "$(cat "$build/stamp" 2>/dev/null)" != "$stamp" ]]; then
	rm -f "$build/stamp"
	go build -o "$build/bin/dbpserved" ./cmd/dbpserved >&2
	(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
	echo "$stamp" >"$build/stamp"
fi

commit=unknown
if [[ -e .git ]] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$build/bin/perfbench" --dbpserved "$build/bin/dbpserved" --out "$build/perfbench" \
	--commit "$commit" --source-sha "$stamp" "$@"
