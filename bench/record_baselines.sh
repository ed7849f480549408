#!/usr/bin/env bash
# Re-record the quick-scale bench baselines CI regresses against.
#
# Usage:
#   bench/record_baselines.sh [build-dir] [bench ...]
#
# With no bench arguments, every "gated" bench from bench/ci_baselines.txt
# is re-run at quick scale and its DAGPM_JSON_OUT document written to
# bench/baselines/BENCH_<bench>.quick.json. Run this after an *intentional*
# behavior change (new instance set, changed search rule, new bench), commit
# the refreshed files, and say so in the commit message — CI treats any
# other drift from these files as a regression.
#
# The default build dir matches the release preset; pass the tier-1 layout
# ("build") or any other configured build tree as the first argument.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build/release}"
shift || true

if [ ! -d "$build_dir/bench" ]; then
  echo "error: '$build_dir/bench' not found; build first, e.g.:" >&2
  echo "  cmake --preset release && cmake --build build/release -j" >&2
  exit 2
fi

benches=("$@")
if [ "${#benches[@]}" -eq 0 ]; then
  while read -r bench mode; do
    case "$bench" in ''|'#'*) continue ;; esac
    if [ "$mode" = "gated" ]; then benches+=("$bench"); fi
  done < "$repo_root/bench/ci_baselines.txt"
fi

mkdir -p "$repo_root/bench/baselines"
for bench in "${benches[@]}"; do
  out="$repo_root/bench/baselines/BENCH_${bench}.quick.json"
  echo "recording $out"
  DAGPM_QUICK=1 DAGPM_JSON_OUT="$out" "$build_dir/bench/$bench" > /dev/null
  python3 -m json.tool "$out" > /dev/null
done
echo "done; diff + commit the refreshed baselines"
