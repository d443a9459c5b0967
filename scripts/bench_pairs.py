#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

Usage:
    python scripts/bench_pairs.py --parent REV [--output BENCH_N.json]

The parent side is ``git archive REV`` unpacked into a temporary directory,
removed afterwards; the change side is this checkout.  For seed k = 1..10
each workload of BENCHMARK.json runs ``perfbench/run.py --trace 0`` once per side, parent
first for odd k and change first for even k, one run after another.  Then
one ``--trace 1`` run of each workload at seed 0 per side gives the
per-layer numbers (``<workload>_trace_seed0``).  The output holds each
end-to-end metric's median and quartiles per side, the pairs the change won
or tied, and the ratio of the medians.

It also records each side's cache-guard ratio (``cache_guard``): the
median over points of a repeat's best time over its first execution, which
``perfbench/workload.py`` stops a ``points`` run for below its
``CACHE_HIT_RATIO``.  It is read as its self-test provokes it: seeds 6 to 8,
20 points, caches left uncleared, three runs per seed and side, each in a
fresh interpreter importing ``perfbench/`` unchanged.

Before any run, each side writes the 13 default-size figure CSVs with
``scripts/reproduce_figures.py``, once by default and once with numpy's
SIMD kernels switched off (``NO_SIMD``); ``figure_csvs`` records per preset
whether the two sides' files are byte-identical, ``figure_csvs.no_simd``
the same for the second set, and ``figure_csvs.no_simd.<side>`` whether
that side wrote the same bytes with and without SIMD.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# Ten alternating pairs is the least the pairing rule accepts.
PAIRS = 10
# the setting of perfbench's test_cache_surviving_between_repeats_stops_the_run
GUARD_SEEDS = (6, 7, 8)
GUARD_POINTS = 20
GUARD_RUNS = 3
# numpy's SIMD kernels switched off, so a byte that depends on them shows: every
# CPU feature this numpy dispatches on ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR" on
# numpy 2.4); numpy ignores a name it does not dispatch on, so none is hard-coded
NO_SIMD = {"NPY_DISABLE_CPU_FEATURES": " ".join(
    (getattr(np, "_core", None) or np.core)._multiarray_umath.__cpu_dispatch__
)}
_GUARD_RUN = """
import sys
sys.path.insert(0, "perfbench")
import speed, workload
su11lso = workload.import_package()
state = workload.points_setup({seed}, su11lso, count={points})
state["sampler"] = speed.Sampler()
state["caches"] = []  # left uncleared: every repeat hits the moment cache
try:
    workload.points_work(state, su11lso)
except RuntimeError:  # the guard firing, as it should
    pass
print(state["best_over_first"])
"""


def side_stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(parent_runs: list, change_runs: list, spec: list[dict]) -> dict:
    """Per-metric comparison of paired runs.

    parent_runs[i] and change_runs[i] are the metric values ({name: value})
    of pair i, or None where that run failed; a pair counts only when both
    sides ran.  spec is BENCHMARK.json's ``end_to_end`` list.  Quartiles
    need two pairs; with fewer the result is empty.
    """
    pairs = [(p, c) for p, c in zip(parent_runs, change_runs) if p is not None and c is not None]
    if len(pairs) < 2:
        return {}
    out = {}
    for metric in spec:
        name, better = metric["name"], metric["better"]
        par = [p[name] for p, _ in pairs]
        chg = [c[name] for _, c in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(par, chg))
        ties = sum(p == c for p, c in zip(par, chg))
        parent, change = side_stats(par), side_stats(chg)
        out[name] = {
            "better": better,
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "median_ratio_change_over_parent": (
                change["median"] / parent["median"] if parent["median"] else None
            ),
        }
    return out


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Metric values of one perfbench run in checkout root, None if it failed.

    Wrong outputs are not a failed run: they show in ``pass_ratio``.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, check=False,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def guard_ratio(root: Path, seed: int) -> float | None:
    """The cache guard's ratio of one uncleared ``points`` run in checkout
    root, None if it failed."""
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_RUN.format(seed=seed, points=GUARD_POINTS)],
        cwd=root, stdout=subprocess.PIPE, check=False,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return float(lines[-1])


def guard_summary(ratios: dict[int, list]) -> dict:
    """One side's guard ratios ({seed: [ratio or None per run]}): every run
    by seed, the failed runs, and the range and median of the rest."""
    values = sorted(v for runs in ratios.values() for v in runs if v is not None)
    out = {
        "by_seed": {str(seed): runs for seed, runs in ratios.items()},
        "failed_runs": sum(v is None for runs in ratios.values() for v in runs),
    }
    if values:
        out.update(min=values[0], median=statistics.median(values), max=values[-1])
    return out


def write_figure_csvs(root: Path, outdir: Path, env: dict | None = None) -> None:
    """The default-size figure CSVs of checkout root, into outdir, with env
    added to the environment."""
    subprocess.run(
        [sys.executable, "scripts/reproduce_figures.py", "--outdir", str(outdir)],
        cwd=root, stdout=subprocess.DEVNULL, check=True, env={**os.environ, **(env or {})},
    )


def csv_identity(parent_dir: Path, change_dir: Path) -> dict:
    """Per CSV either side wrote (by preset name): whether both sides wrote
    it with the same bytes."""
    names = sorted({p.stem for d in (parent_dir, change_dir) for p in d.glob("*.csv")})
    identical = {}
    for name in names:
        files = [d / f"{name}.csv" for d in (parent_dir, change_dir)]
        identical[name] = all(f.exists() for f in files) and (
            files[0].read_bytes() == files[1].read_bytes()
        )
    return {"identical": identical, "all_identical": bool(names) and all(identical.values())}


def figure_csv_report(csvs: Path) -> dict:
    """``figure_csvs`` from the CSVs each side wrote under csvs: into
    ``<side>`` by default and ``<side>-no-simd`` with ``NO_SIMD``."""
    return {
        "what": "scripts/reproduce_figures.py at its default size on each side; "
                "per preset, whether the two CSVs are byte-identical; no_simd: the "
                f"same with {' '.join(f'{k}={v!r}' for k, v in NO_SIMD.items())}, "
                "and no_simd.<side>: that side's CSVs with and without SIMD",
        **csv_identity(csvs / "parent", csvs / "change"),
        "no_simd": {
            **csv_identity(csvs / "parent-no-simd", csvs / "change-no-simd"),
            **{side: csv_identity(csvs / side, csvs / f"{side}-no-simd")
               for side in ("parent", "change")},
        },
    }


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--output", type=Path, help="JSON file (default: standard output)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT,
        stdout=subprocess.PIPE, check=True, text=True,
    ).stdout.strip()

    seeds = list(range(1, PAIRS + 1))
    report = {
        "what": "perfbench end-to-end metrics, parent commit vs this change, "
                f"{PAIRS} alternating pairs per workload over the same seeds; "
                "traced layer numbers of each workload from one --trace 1 run per side",
        "commands": [
            f"python3 perfbench/run.py --workload {{{','.join(workloads)}}} "
            f"--seed {{1..{PAIRS}}} --seconds {seconds} --trace 0",
            f"python3 perfbench/run.py --workload {{{','.join(workloads)}}} "
            f"--seed 0 --seconds {seconds} --trace 1",
        ],
        "pairing": "seed k runs parent first for odd k, change first for even k; "
                   "runs one after another, never side by side",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of each side",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "parent": parent_rev,
        "workloads": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    csvs = Path(tempfile.mkdtemp(prefix="bench_pairs_csv_"))
    try:
        unpack(parent_rev, tmp)
        sides = {"parent": tmp, "change": ROOT}
        for side, root in sides.items():
            write_figure_csvs(root, csvs / side)
            write_figure_csvs(root, csvs / f"{side}-no-simd", NO_SIMD)
        report["figure_csvs"] = figure_csv_report(csvs)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(run_bench(sides[side], workload, seed, seconds, 0))
                    print(f"{workload} seed {seed} {side}: "
                          f"{'failed' if runs[side][-1] is None else 'ok'}", file=sys.stderr)
            report["workloads"][workload] = {
                "seeds": seeds,
                "failed_runs": {side: runs[side].count(None) for side in runs},
                "metrics": summarize(runs["parent"], runs["change"], spec["end_to_end"]),
            }
        for workload in workloads:
            report[f"{workload}_trace_seed0"] = {
                side: run_bench(sides[side], workload, 0, seconds, 1)
                for side in ("parent", "change")
            }
        guard = {side: {seed: [] for seed in GUARD_SEEDS} for side in sides}
        for seed in GUARD_SEEDS:
            for _ in range(GUARD_RUNS):
                for side in sides:
                    guard[side][seed].append(guard_ratio(sides[side], seed))
        report["cache_guard"] = {
            "what": f"median over {GUARD_POINTS} points of best repeat / first execution, "
                    "caches left uncleared; perfbench stops a points run below "
                    "CACHE_HIT_RATIO (0.4)",
            **{side: guard_summary(guard[side]) for side in sides},
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(csvs, ignore_errors=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
