#!/usr/bin/env bash
# Build the simulator benchmark from the sources in this checkout and run
# it.  Arguments pass through to main.exe:
#   bash simbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "simbench: no simulator sources next to simbench/; run from a full checkout" >&2
  exit 2
fi
# build output stays in ./_build; the shared dune cache is not used
dune build --root . --cache=disabled --display=quiet ./simbench/main.exe >&2
exec ./_build/default/simbench/main.exe "$@"
