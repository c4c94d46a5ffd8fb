#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it
# with the given arguments (see perfbench/bench.ml). Build output goes to
# standard error so the last line of standard output stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
