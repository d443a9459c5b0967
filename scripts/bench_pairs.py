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

ROOT = Path(__file__).resolve().parents[1]
# Ten alternating pairs is the least the pairing rule accepts.
PAIRS = 10


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
    try:
        unpack(parent_rev, tmp)
        sides = {"parent": tmp, "change": ROOT}
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
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
