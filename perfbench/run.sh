#!/usr/bin/env bash
# Builds the benchmark program (and the reoptdb library it links) from
# source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tpcd_single --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr and into .bench_build/ at the checkout root,
# so the run's result stays the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build/perfbench"

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "perfbench: reoptdb sources not found under $root/src" >&2
  exit 2
fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --parallel 4 >&2

exec "$build/reoptdb_perfbench" "$@"
