#!/usr/bin/env python3
"""The su11lso benchmark: one command, every metric with its unit, outputs checked.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Workloads (see README.md beside this file): ``figures``, ``points`` and
``validate``.  Each runs its fixed work once, in a fresh interpreter, and
the children run one after another, never side by side.

--trace 0 prints the end-to-end metrics; on figures and points the work's
times are given at a reference host speed (speed.py).  Set-up is timed in
five fresh interpreters (four that only set up, then the measured one) and
reported as their median.  --trace 1 prints the per-layer metrics: one untraced and
one traced child, so ``trace.overhead_ratio`` compares their wall times.

The last line of standard output is the result object; the line before it
holds the details (machine, sample counts, failures, per-hook table).
``--seconds`` is the run length the work is sized to; the work itself is
fixed, so that every run of a workload measures the same thing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170  # every child of one run must end within this
SETUP_SAMPLES = 5

def metrics_for(section: str, values: dict) -> dict:
    """BENCHMARK.json's metrics of one section, with their units, from values."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{section} metrics not produced: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"),
         "--workload", workload, "--seed", str(seed), "--mode", mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=False,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    setups = [
        child(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    out = child(workload, seed, "run", deadline)
    setups.append(out["setup_s"])
    values = {
        "wall_s": out["wall_s"],
        "cpu_s": out["cpu_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "pass_ratio": 1.0 - out["failed"] / out["attempted"],
        "op_p50_ms": out["op_p50_ms"],
        "op_tail_ms": out["op_tail_ms"],
        "max_dev_over_tol": out["max_dev_over_tol"],
    }
    metrics = metrics_for("end_to_end", values)
    detail = {key: out[key] for key in out if key not in values}
    detail["setup_samples_s"] = setups
    return metrics, {"result": out, "detail": detail}


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    plain = child(workload, seed, "run", deadline)
    traced = child(workload, seed, "trace", deadline)
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    metrics = metrics_for("per_layer", values)
    detail = {key: traced[key] for key in traced if key != "layers"}
    detail["untraced_wall_s"] = plain["wall_s"]
    result = {key: plain[key] + traced[key] for key in ("attempted", "failed")}
    return metrics, {"result": result, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "points", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "su11lso" / "__init__.py").is_file():
        print(f"no su11lso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info = measure(args.workload, args.seed, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    result = info["result"]
    detail = dict(info["detail"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  wait_time="not recorded: the layers are single-threaded and have no queues")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
