#!/usr/bin/env bash
# Re-record the quick-scale bench baselines CI regresses against.
#
# Usage:
#   bench/record_baselines.sh [build-dir] [doc ...]
#
# Runs every binary of bench/ci_baselines.txt at quick scale into a
# temporary DAGPM_JSON_OUT directory, then copies the named documents (or,
# with no doc arguments, every document that already has a baseline) to
# bench/baselines/BENCH_<doc>.quick.json. Run this after an *intentional*
# behavior change (new instance set, changed search rule, new bench),
# commit the refreshed files, and say so in the commit message — CI treats
# any other drift from these files as a regression. Naming a document
# without a baseline starts gating it.
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

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
while read -r bench; do
  case "$bench" in ''|'#'*) continue ;; esac
  echo "running $bench"
  # DAGPM_STATS as in CI, so each document's stats block carries the work
  # counters as well as the span totals.
  DAGPM_QUICK=1 DAGPM_JSON_OUT="$out_dir" DAGPM_STATS="$out_dir/$bench.stats" \
    "$build_dir/bench/$bench" > /dev/null
done < "$repo_root/bench/ci_baselines.txt"

docs=("$@")
if [ "${#docs[@]}" -eq 0 ]; then
  for baseline in "$repo_root"/bench/baselines/BENCH_*.quick.json; do
    doc="${baseline##*/BENCH_}"
    docs+=("${doc%.quick.json}")
  done
fi

mkdir -p "$repo_root/bench/baselines"
for doc in "${docs[@]}"; do
  if [ ! -f "$out_dir/$doc.json" ]; then
    echo "error: no bench in bench/ci_baselines.txt exported '$doc'" >&2
    exit 1
  fi
  python3 -m json.tool "$out_dir/$doc.json" > /dev/null
  cp "$out_dir/$doc.json" "$repo_root/bench/baselines/BENCH_${doc}.quick.json"
  echo "recorded bench/baselines/BENCH_${doc}.quick.json"
done
echo "done; diff + commit the refreshed baselines"
