#!/usr/bin/env bash
# Build the benchmark from source and run it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The pool runs one domain per processor (PAR_DOMAINS pinned to nproc).
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
PAR_DOMAINS="$(nproc)"
export PAR_DOMAINS
exec ./_build/default/perfbench/main.exe "$@"
