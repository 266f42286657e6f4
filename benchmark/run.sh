#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments
# (see benchmark/README.md).  Run it from the root of the repository:
#
#   bash benchmark/run.sh --workload tpcc-bnb --seed 42 --seconds 20 --trace 0
#
# Build output goes to stderr, so the result JSON stays the last line of
# stdout.  The dune cache is disabled, so nothing is written outside the
# source tree.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
export DUNE_CACHE=disabled
# Outside a git checkout the provenance stamp must not ask git, which
# would search the parent directories.
if [ -z "${VPART_GIT_REV:-}" ] && [ ! -e .git ]; then
  export VPART_GIT_REV=unknown
fi

dune build --root . ./benchmark/vbench.exe >&2
exec ./_build/default/benchmark/vbench.exe "$@"
