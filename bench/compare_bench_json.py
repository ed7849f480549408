#!/usr/bin/env python3
"""Regression checker for the DAGPM_JSON_OUT bench trajectory.

Compares a freshly produced bench JSON document against a recorded baseline
(bench/baselines/BENCH_<name>.<scale>.json) and fails when any non-timing
numeric column drifts beyond the tolerance. Machine-dependent columns
(``*_seconds``, ``*_runtime_ratio``, and ``*_rss_mb`` memory footprints)
are always ignored; everything
else (makespans, ratios, schedulability counts, robustness slowdowns) is
deterministic for a fixed scale/seed configuration and must reproduce.
Search-effort counters such as ``*_nodes_visited`` (the branch-and-bound
proof size in bench/optimality_gap) are deterministic by the same argument
and deliberately NOT in the ignore list: a drifting node count means the
search explored a different tree, which is a behavior change to re-record,
not noise.

Usage:
    bench/compare_bench_json.py BASELINE CURRENT [--rtol 1e-6] [--atol 1e-9]

Rows are matched by their string-valued fields (config, band, family,
scheduler, ...), so the checker works for both the scheduler-comparison
benches and the robustness bench without schema knowledge. Exit status: 0 on
match, 1 on regression/missing rows, 2 on usage or I/O errors.
"""

import argparse
import json
import sys

IGNORED_SUFFIXES = ("_seconds", "_runtime_ratio", "_rss_mb")

# Integer event tallies of the fault-injection study (the fault_recovery
# document) count discrete SplitMix64-drawn events, so "close" is
# meaningless: any drift means a different fault sequence was applied. They
# are compared exactly, whatever --rtol/--atol say.
EXACT_SUFFIXES = ("_fail_stops", "_crashes", "_tasks_killed", "_retries")


def row_key(row):
    """Identity of a row: its string-valued fields, sorted for stability."""
    return tuple(sorted((k, v) for k, v in row.items() if isinstance(v, str)))


def numeric_fields(row):
    return {
        k: float(v)
        for k, v in row.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
        and not k.endswith(IGNORED_SUFFIXES)
    }


def compare_numbers(path, base, cur, rtol, atol, failures):
    for field in sorted(base):
        if field not in cur:
            failures.append(f"{path}: column '{field}' missing in current")
            continue
        b, c = base[field], cur[field]
        if field.endswith(EXACT_SUFFIXES):
            if c != b:
                failures.append(
                    f"{path}.{field}: baseline {b:.9g} vs current {c:.9g} "
                    f"(exact-match column; a drifting fault tally means a "
                    f"different event sequence)"
                )
        elif abs(c - b) > atol + rtol * abs(b):
            failures.append(
                f"{path}.{field}: baseline {b:.9g} vs current {c:.9g} "
                f"(drift {c - b:+.3g})"
            )
    for field in sorted(set(cur) - set(base)):
        # New columns are fine (schema grows); only report, don't fail.
        print(f"note: {path}: new column '{field}' not in baseline")


def describe(key):
    parts = [f"{k}={v}" for k, v in key if v]
    return "{" + ", ".join(parts) + "}" if parts else "{unnamed}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--rtol", type=float, default=1e-6,
                        help="relative tolerance (default: %(default)g)")
    parser.add_argument("--atol", type=float, default=1e-9,
                        help="absolute tolerance (default: %(default)g)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            base = json.load(f)
    except FileNotFoundError:
        # The common first-run / renamed-bench mistake deserves the exact
        # remedy, not a stack of JSON plumbing.
        print(f"error: baseline '{args.baseline}' does not exist; "
              "record it with bench/record_baselines.sh "
              "(then commit the new file)", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        with open(args.current) as f:
            cur = json.load(f)
    except FileNotFoundError:
        # A baseline whose bench exported nothing (renamed document, bench
        # dropped from the manifest) must fail by name.
        print(f"error: current document '{args.current}' does not exist; "
              "no bench in bench/ci_baselines.txt exported it",
              file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    failures = []
    for doc, name in ((base, "baseline"), (cur, "current")):
        if "rows" not in doc or not isinstance(doc["rows"], list):
            print(f"error: {name} document has no 'rows' array",
                  file=sys.stderr)
            return 2
    if base.get("bench") != cur.get("bench"):
        failures.append(
            f"bench name mismatch: baseline '{base.get('bench')}' vs "
            f"current '{cur.get('bench')}'"
        )
    base_meta = base.get("meta", {})
    cur_meta = cur.get("meta", {})
    for key in ("scale", "seeds", "sweep"):
        if key in base_meta and base_meta.get(key) != cur_meta.get(key):
            failures.append(
                f"meta.{key} mismatch: baseline '{base_meta.get(key)}' vs "
                f"current '{cur_meta.get(key)}' (comparing different runs?)"
            )

    base_rows = {row_key(r): r for r in base["rows"]}
    cur_rows = {row_key(r): r for r in cur["rows"]}
    # Duplicate keys would silently shadow rows and let regressions through;
    # refuse to certify such a document.
    for rows, doc, name in ((base_rows, base, "baseline"),
                            (cur_rows, cur, "current")):
        if len(rows) != len(doc["rows"]):
            print(f"error: {name} has rows with duplicate string keys; "
                  "the checker cannot match them reliably", file=sys.stderr)
            return 2
    for key in sorted(base_rows):
        if key not in cur_rows:
            failures.append(f"row {describe(key)} missing in current")
            continue
        compare_numbers(f"row {describe(key)}", numeric_fields(base_rows[key]),
                        numeric_fields(cur_rows[key]), args.rtol, args.atol,
                        failures)
    for key in sorted(set(cur_rows) - set(base_rows)):
        print(f"note: new row {describe(key)} not in baseline")

    if "overall" in base and "overall" in cur:
        compare_numbers("overall", numeric_fields(base["overall"]),
                        numeric_fields(cur["overall"]), args.rtol, args.atol,
                        failures)

    # The observability summary (counters + span totals) regresses like any
    # other block, but only when both documents carry it: baselines recorded
    # before the stats export existed stay certifiable untouched. Timing
    # fields (*_seconds etc.) are machine-varying and already ignored by
    # numeric_fields.
    if isinstance(base.get("stats"), dict) and isinstance(cur.get("stats"),
                                                          dict):
        compare_numbers("stats", numeric_fields(base["stats"]),
                        numeric_fields(cur["stats"]), args.rtol, args.atol,
                        failures)

    if failures:
        print(f"REGRESSION vs {args.baseline}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"ok: {args.current} matches {args.baseline} "
        f"({len(base_rows)} rows, rtol={args.rtol:g})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
