#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error; standard output is the benchmark's.
set -u
cd "$(dirname "$0")/.." || exit 1
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2 || {
  echo "perfbench: build failed" >&2
  exit 1
}
exec ./_build/default/perfbench/main.exe "$@"
