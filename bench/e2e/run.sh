#!/usr/bin/env bash
# End-to-end solve benchmark (README.md in this directory).
#
#   bench/e2e/run.sh [--seed S] [--trace] [--self-test]
#       builds build-e2e/, runs every workload in its own process and
#       writes build-e2e/results/<stamp>.json; exits non-zero when any
#       output check failed.
#   bench/e2e/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       one workload; its last stdout line is the BENCHMARK.json result.
#       A run lasts run_seconds from BENCHMARK.json; --seconds may only
#       repeat that value.
#   bench/e2e/run.sh --compare A.json[,A2.json...] B.json[,B2.json...]
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-e2e"

# Parent and change must run the same program: no GEP_* knob
# (GEP_STRASSEN_*, GEP_FORCE_SCALAR, GEP_DAG_LOOKAHEAD, ...) leaks in.
while read -r var; do unset "$var"; done < <(compgen -e | grep '^GEP_' || true)

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no library sources under $root" >&2
  exit 2
fi

mkdir -p "$build"
if ! {
  [[ -f "$build/CMakeCache.txt" ]] ||
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target gep_e2e -j "$(nproc)"
} >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed; full log in $build/build.log" >&2
  exit 2
fi

bin="$build/gep_e2e"
mode=all
for arg in "$@"; do
  case $arg in
    --compare | --list) exec "$bin" --spec "$root/BENCHMARK.json" "$@" ;;
    --workload) mode=one ;;
  esac
done

out="$build/results/$(date +%Y%m%d-%H%M%S)-$$"
mkdir -p "$out"
sha=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fixed=(--spec "$root/BENCHMARK.json" --out "$out" --git-sha "$sha")
[[ $mode == one ]] && exec "$bin" "${fixed[@]}" "$@"

status=0
sep=
{
  printf '{"workloads":['
  for w in $("$bin" --list); do
    "$bin" --workload "$w" "${fixed[@]}" "$@" >&3 || status=1
    if [[ -f "$out/$w.json" ]]; then
      printf '%s' "$sep"
      cat "$out/$w.json"
      sep=,
    fi
  done
  printf ']}\n'
} 3>&1 >"$out.json"
echo "results: $out.json"
exit $status
