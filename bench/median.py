#!/usr/bin/env python3
"""Median protocol for perfbench and paper_figures: alternating pairs.

    python3 bench/median.py --base HEAD~1 --pairs 10 \\
        --workloads merge-genome,swap-wide --seeds 1 --seconds 6
    python3 bench/median.py --base HEAD~1 --pairs 3 \\
        --figures fig03_left_default_cluster,table04_runtimes

Extracts the base revision with ``git archive`` into ``.median/<sha>`` under
the repository root (gitignored, reused by later runs; an archive leaves no
worktree registration behind in .git), then runs ``perfbench/run.py
--trace 0`` of the base and of the working tree: one warm-up of each (which
also builds both), then ``--pairs`` alternating pairs per workload and seed.
Pair i runs the base first when i is even and the change first when i is
odd, so a drift of the host does not always favour one side.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the median of the per-pair ratios change/base (which cancels
most of the host's drift), the pairs the change won and one verdict:
``GAIN`` when the change won at least ceil(0.9 x pairs) pairs *and* its
median is better than the base's by more than the base's interquartile
range, ``PAST-BOUND`` when the median ratio is worse than the metric's
BENCHMARK.json bound, ``-`` otherwise. Either half alone is no gain: over a
few runs the base's IQR can be narrower than the host's drift, and a
no-op then clears it (``gain>IQR`` is still printed, as detail). The
header records nproc, the CPU model, OMP_NUM_THREADS, the compiler and both
commits. ``--trajectory FILE`` appends the whole result as
one JSON line (e.g. bench/trajectory/perfbench.jsonl). A record names the
change by the commit it ran, so ``--trajectory`` is refused while ``git
status --porcelain`` shows anything: commit the change first and pass
``--base <parent>``.

With ``--figures a,b`` the tool times ``paper_figures a b`` of each side
instead, at default scale (every DAGPM_* variable that selects the
scale, the seeds, the sweep or an export is dropped from its environment).
Both sides are built first, each into its own ``.bench_build/paper_figures``
configured with the same arguments (Release), so the two binaries differ in
code only; then the same warm-up, alternating pairs and verdict apply to one
metric, ``wall_s``: the process's wall time, lower is better, with no bound.

Exit status: 0 when every run reported ``correct: true``, 1 otherwise, 2 on
usage errors.
"""

import argparse
import datetime
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---- pure helpers (covered by bench/test_median.py) ------------------------

def parse_run_output(text):
    """The JSON result of one perfbench/run.py run: its last stdout line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    doc = json.loads(lines[-1])
    if "metrics" not in doc or "correct" not in doc:
        raise ValueError("perfbench result has no 'metrics'/'correct'")
    return doc


def metric_values(doc):
    """{metric name: value} of one parsed run."""
    return {name: float(entry["value"])
            for name, entry in doc["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins_needed(pairs):
    """Pairs the change must win for a GAIN: ceil(0.9 x pairs)."""
    return -(-9 * pairs // 10)


def ratio(change, base):
    if base == 0.0:
        return 1.0 if change == 0.0 else float("inf")
    return change / base


def summarize(base, change, better, bound=None):
    """Statistics of one metric over paired runs.

    base and change are equally long lists, pair i = (base[i], change[i]);
    better is "lower" or "higher"; bound is BENCHMARK.json's relative
    regression bound, or None for a metric without one.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    med_ratio = statistics.median(ratio(c, b) for b, c in zip(base, change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    clear = sign * (b_med - c_med) > b_q3 - b_q1
    if bound is None:
        past_bound = False
    elif better == "lower":
        past_bound = med_ratio > 1.0 + bound
    else:
        past_bound = med_ratio < 1.0 - bound
    if past_bound:
        verdict = "PAST-BOUND"
    elif clear and wins >= wins_needed(len(base)):
        verdict = "GAIN"
    else:
        verdict = "-"
    return {
        "better": better,
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "median_ratio": med_ratio,
        "wins": wins,
        "pairs": len(base),
        "gain_beyond_base_iqr": clear,
        "bound": bound,
        "past_bound": past_bound,
        "verdict": verdict,
    }


def summarize_runs(base_runs, change_runs, specs):
    """{metric: summarize(...)} for every metric in `specs` both sides have.

    base_runs/change_runs are lists of metric_values() dicts in pair order;
    specs maps a metric name to {"better": ..., "bound": ...}.
    """
    out = {}
    for name, spec in specs.items():
        if not all(name in r for r in base_runs + change_runs):
            continue
        out[name] = summarize([r[name] for r in base_runs],
                              [r[name] for r in change_runs],
                              spec["better"], spec.get("bound"))
    return out


def format_table(workload, seed, summary):
    """The summary as a table; `seed` None leaves the seed out."""
    def side(q):
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"

    heading = workload if seed is None else f"{workload} (seed {seed})"
    lines = [f"== {heading} ==",
             f"{'metric':<26}{'base median [q1, q3]':>32}"
             f"{'change median [q1, q3]':>32}{'ratio':>9}{'wins':>8}"
             f"  {'verdict':<11}detail"]
    for name, s in summary.items():
        detail = []
        if s["gain_beyond_base_iqr"]:
            detail.append("gain>IQR")
        if s["past_bound"]:
            detail.append(f"bound {s['bound']:g}")
        wins = f"{s['wins']}/{s['pairs']}"
        lines.append(f"{name:<26}{side(s['base']):>32}{side(s['change']):>32}"
                     f"{s['median_ratio']:>9.3f}{wins:>8}  {s['verdict']:<11}"
                     f"{' '.join(detail)}".rstrip())
    return "\n".join(lines)


def end_to_end_specs(benchmark):
    """{metric: {"better", "bound"}} of BENCHMARK.json's end-to-end list."""
    return {m["name"]: {"better": m["better"], "bound": m.get("bound")}
            for m in benchmark.get("end_to_end", [])}


def paired_runs(sides, pairs, run):
    """One warm-up run(root) of each (side, root) of `sides`, then `pairs`
    alternating pairs: pair i runs the base (sides[0]) first when i is even
    and the change first when i is odd. Returns {side: [run(root), ...]} in
    pair order, warm-ups left out."""
    for _, root in sides:
        run(root)
    runs = {side: [] for side, _ in sides}
    for i in range(pairs):
        for side, root in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(run(root))
    return runs


# The --figures mode's one metric.
FIGURES_SPECS = {"wall_s": {"better": "lower", "bound": None}}

# Variables that select paper_figures' scale, seeds or sweep, or make it
# export or trace: the timed runs drop them.
FIGURES_DROPPED_ENV = ("DAGPM_QUICK", "DAGPM_FULL", "DAGPM_SEEDS",
                       "DAGPM_SWEEP", "DAGPM_JSON_OUT", "DAGPM_CSV",
                       "DAGPM_STATS", "DAGPM_TRACE")


def parse_figures(text):
    """The figure names of ``--figures a,b``."""
    figures = [name for name in text.split(",") if name]
    if not figures:
        raise ValueError("--figures names no figure")
    return figures


def default_scale_env(environ):
    """`environ` without FIGURES_DROPPED_ENV: paper_figures at default
    scale, exporting nothing."""
    return {k: v for k, v in environ.items() if k not in FIGURES_DROPPED_ENV}


def figures_build(root, jobs):
    """(build directory, configure command, build command) of paper_figures
    under `root`: the same arguments for every root, so the base and the
    change are built alike whatever <root>/build holds."""
    build = os.path.join(root, ".bench_build", "paper_figures")
    configure = ["cmake", "-S", root, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build, "-j", str(jobs), "--target",
                "paper_figures"]
    return build, configure, compile_


def summarize_walls(base, change):
    """summarize_runs of paired paper_figures wall times (seconds)."""
    return summarize_runs([{"wall_s": b} for b in base],
                          [{"wall_s": c} for c in change], FIGURES_SPECS)


def trajectory_refusal(porcelain):
    """Why ``--trajectory`` must not record from the tree whose ``git status
    --porcelain`` is `porcelain`, or None when it is clean. A record names
    the change by HEAD's sha, so uncommitted work would be recorded under
    the parent's name."""
    if not porcelain.strip():
        return None
    return ("--trajectory needs a clean working tree: the record names the "
            "change by its commit, and uncommitted work would be recorded "
            "under the parent's sha. Commit the change first and pass "
            "--base <parent>.")


# ---- running ---------------------------------------------------------------

def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout_base(rev):
    """Extracts `rev` into .median/<sha> once; returns (sha, directory)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    target = os.path.join(ROOT, ".median", sha)
    if not os.path.isdir(target):
        partial = target + ".partial"
        subprocess.run(["rm", "-rf", partial], check=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
        os.rename(partial, target)
    return sha, target


def run_perfbench(root, workload, seed, seconds, log):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                            stderr=log, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} (in {root}) exited "
                           f"{result.returncode}; see {log.name}")
    return parse_run_output(result.stdout)


def build_paper_figures(root, log):
    """Configures and builds paper_figures under `root` (figures_build);
    returns the binary's path."""
    build, configure, compile_ = figures_build(
        root, max(1, min(4, os.cpu_count() or 1)))
    for command in (configure, compile_):
        subprocess.run(command, stdout=log, stderr=log, check=True)
    return os.path.join(build, "bench", "paper_figures")


def time_figures(binary, figures, log):
    """Wall seconds of one default-scale run of `binary figures...`."""
    start = time.perf_counter()
    result = subprocess.run([binary, *figures], stdout=subprocess.DEVNULL,
                            stderr=log, env=default_scale_env(os.environ))
    wall = time.perf_counter() - start
    if result.returncode != 0:
        raise RuntimeError(f"{binary} exited {result.returncode}; "
                           f"see {log.name}")
    return wall


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler_of(build):
    cache = os.path.join(build, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    version = subprocess.run([path, "--version"],
                                             capture_output=True, text=True)
                    return version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="",
                        help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--seeds", default="1", help="comma-separated")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="perfbench --seconds per run")
    parser.add_argument("--figures",
                        help="comma-separated paper_figures figures: time "
                             "them at default scale instead of perfbench")
    parser.add_argument("--trajectory",
                        help="append the result as one JSON line to FILE")
    parser.add_argument("--note", default="",
                        help="free text stored with the trajectory line")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        figures = parse_figures(args.figures) if args.figures else None
    except ValueError as e:
        parser.error(str(e))

    if args.trajectory:
        refusal = trajectory_refusal(git("status", "--porcelain"))
        if refusal:
            parser.error(refusal)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    specs = end_to_end_specs(benchmark)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in benchmark["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",") if s]

    base_sha, base_root = checkout_base(args.base)
    change_sha = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change_sha += "+dirty"
    log_path = os.path.join(ROOT, ".median", "build.log")
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "base": base_sha,
        "change": change_sha,
        "note": args.note,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "host": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
            "build_type": "Release",
        },
        "results": [],
    }
    correct = True
    with open(log_path, "a") as log:
        sides = (("base", base_root), ("change", ROOT))
        if figures:
            binaries = {root: build_paper_figures(root, log)
                        for _, root in sides}
            walls = paired_runs(sides, args.pairs, lambda root: time_figures(
                binaries[root], figures, log))
            summary = summarize_walls(walls["base"], walls["change"])
            title = "paper_figures " + ",".join(figures)
            record["figures"] = figures
            record["results"].append({"figures": figures, "metrics": summary})
            print(format_table(title, None, summary), flush=True)
        else:
            for workload, seed in itertools.product(workloads, seeds):
                # The warm-up runs also build both sides.
                docs = paired_runs(sides, args.pairs, lambda root: (
                    run_perfbench(root, workload, seed, args.seconds, log)))
                correct = correct and all(
                    bool(doc["correct"]) for side in docs.values()
                    for doc in side)
                summary = summarize_runs(
                    [metric_values(doc) for doc in docs["base"]],
                    [metric_values(doc) for doc in docs["change"]], specs)
                record["results"].append(
                    {"workload": workload, "seed": seed, "metrics": summary})
                print(format_table(workload, seed, summary), flush=True)
    record["host"]["compiler"] = compiler_of(
        figures_build(ROOT, 1)[0] if figures else
        os.path.join(ROOT, ".bench_build", "perfbench"))
    runs = ("default-scale paper_figures runs" if figures else
            f"{args.seconds:g} s runs")
    print(f"base {base_sha}, change {change_sha}; "
          f"nproc {record['host']['nproc']}, {record['host']['cpu']}, "
          f"OMP_NUM_THREADS {record['host']['omp_num_threads']}, "
          f"{record['host']['compiler']}; {args.pairs} pairs of {runs}")
    if args.trajectory:
        with open(args.trajectory, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    if not correct:
        print("error: a run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
