"""One benchmark workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/workload.py --workload points --seed 3 --mode run

Modes: ``setup`` stops after set-up and reports only its time; ``run``
also does the workload's fixed work and checks the outputs; ``trace``
does the same with the per-layer hooks installed.  ``perfbench/run.py``
starts this script and assembles the benchmark result; see the README
beside it for what each workload and metric means.

The package is imported from the ``src`` directory of the checkout that
holds this file, and nowhere else.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_work"

REL_TOL = 1e-9  # benchmark reference against the analytic route
ORACLE_TOL = 1e-6  # analytic route against the Fock oracle
MIXED_SLACK = 1e-8  # oracle mixed-state QFI may exceed the bound by this much

FIGURE_PRESETS = (
    "fig10", "fig11a", "fig11b", "fig2", "fig3", "fig4", "fig5",
    "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b",
)
POINT_COUNT = 3_000
# each point runs this many times from cold caches, each execution between
# two runs of the speed kernel, and its lowest execution-over-kernel ratio
# counts: the host runs each vCPU at one of two speeds and at times flips
# between them within milliseconds, so neither one execution per point nor
# the ten-a-second speed samples of speed.py kept its p95 from measuring the
# host
POINT_REPEATS = 3
# a repeat faster than this share of the first execution, at the median
# over points, means it hit a cache the benchmark did not clear
CACHE_HIT_RATIO = 0.4
ACCEPTANCE_PHIS = (0.3, 0.8, 1.5)
# the acceptance suite's sub-grid: the worst-margin cell (alpha 0.5, g 1,
# r 1, phi 1.5) follows its alpha = 0 neighbour, so the oracle's warm-start
# history shows in the margin; the internal-loss pairs run on the r = 0.5
# engines, where the Kraus-column sweep costs seconds rather than half a
# minute and 3 GB
CHECK_GRIDS = (
    dict(alphas=(0.0, 0.5), gs=(0.5, 1.0), rs=(0.5, 1.0),
         t_pairs=((1.0, 1.0), (1.0, 0.7))),
    dict(alphas=(0.5,), gs=(0.5, 1.0), rs=(0.5,),
         t_pairs=((0.7, 1.0), (0.7, 0.7))),
)
MIXED_POINT = dict(g=1.0, alpha=1.0, r=0.6)
MIXED_PREP_TAIL = 1e-12


def import_package():
    """Import su11lso from this checkout's src directory only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import su11lso
    from su11lso import cli, crosscheck, fock, metrology, sweeps  # noqa: F401

    origin = Path(su11lso.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"su11lso imported from {origin}, not from {SRC}")
    return su11lso


def rank(fraction, n):
    """1-based rank of the given quantile among n sorted samples."""
    return math.ceil(round(fraction * n, 6))


def tail_percentile(times):
    """(value, percentile, samples beyond): p95 when at least ten samples lie
    beyond it, else the maximum.

    Not the highest percentile with ten samples beyond: on a shared virtual
    machine the host stalls the process for about 8 ms every half second or
    so, and the cyclic collector pauses about 1% of queries, so p99.9 and
    p99 of 1.5 ms queries measure the host and the collector's cadence
    rather than the program (p99 moved by 25% between runs of one commit).
    """
    ordered = sorted(times)
    k = rank(0.95, len(ordered))
    if len(ordered) - k >= 10:
        return ordered[k - 1], 95.0, len(ordered) - k
    return ordered[-1], 100.0, 0


def rel_dev(value, ref):
    if value == ref:  # equal infinities included
        return 0.0
    return abs(value - ref) / abs(ref) if ref != 0 else math.inf


class Checker:
    """Counts operations and failures, and each operation's worst relative
    deviation from its reference."""

    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.failed = 0
        self.op_devs = []
        self.messages = []

    @property
    def attempted(self):
        return len(self.op_devs)

    def begin(self):
        """Start the next operation."""
        self.op_devs.append(0.0)

    def fail(self, what):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)

    def deviation(self, value, ref):
        """Relative deviation of value from ref, folded into the operation's worst."""
        dev = rel_dev(value, ref)
        if math.isfinite(dev):
            self.op_devs[-1] = max(self.op_devs[-1], dev)
        return dev

    def dev_over_tol(self, percentile=None):
        """Worst deviation over the tolerance, or the given percentile of the
        per-operation worst deviations."""
        if not self.op_devs:
            return 0.0
        ordered = sorted(self.op_devs)
        if percentile is None:
            return ordered[-1] / self.tolerance
        return ordered[rank(percentile / 100.0, len(ordered)) - 1] / self.tolerance


# ---------------------------------------------------------------------------
# figures: every caption-pinned preset through the command line


def figures_setup(seed, su11lso, presets=FIGURE_PRESETS, points=None):
    order = list(presets)
    if seed != 0:
        random.Random(seed).shuffle(order)
    out_dir = WORK_DIR / f"figures-{os.getpid()}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    warm = [
        "sweep", "--var", "phi", "--start", "0.1", "--stop", "1", "--count", "3",
        "--g", "0.37", "--alpha", "0.61", "--r", "0.23", "--t1", "0.9", "--eta", "0.4",
        "--quantities", "delta_phi,delta_phi_min,N,sql,qfi,qcrb,qfi_lossy,qcrb_lossy",
        "--output", str(out_dir / "warm-up.csv"),
    ]
    if su11lso.cli.main(warm) != 0:
        raise RuntimeError("figures warm-up sweep failed")
    extra = [] if points is None else ["--points", str(points)]
    return dict(order=order, out_dir=out_dir, extra=extra)


def figures_work(state, su11lso):
    """Runs every preset; the whole batch is the one operation timed, and
    each preset's seconds go to the detail line."""
    errors = {}
    parts = {}
    for name in state["order"]:
        path = state["out_dir"] / f"{name}.csv"
        t0 = time.perf_counter()
        try:
            code = su11lso.cli.main(["figure", name, "--output", str(path), *state["extra"]])
        except Exception as exc:  # counted as a failed operation
            code = f"{type(exc).__name__}: {exc}"
        parts[name] = time.perf_counter() - t0
        if code != 0:
            errors[name] = code
    state["errors"] = errors
    state["part_s"] = parts


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _cell(text):
    return None if text == "" else float(text)


def figures_verify(state, checker):
    import numpy as np

    for name in state["order"]:
        if name in state["errors"]:
            checker.begin()
            checker.fail(f"{name}: {state['errors'][name]}")
            continue
        rows = _read_csv(state["out_dir"] / f"{name}.csv")
        if not rows:
            checker.begin()
            checker.fail(f"{name}: no rows")
            continue
        cols = {k: np.array([float(r[k]) for r in rows]) for k in ("g", "alpha", "r", "t1", "t2", "phi", "eta")}
        refs = point_references(
            cols["g"], cols["alpha"], cols["r"], cols["t1"], cols["t2"], cols["phi"], cols["eta"],
            with_minimum="delta_phi_min" in rows[0],
        )
        for i, row in enumerate(rows):
            checker.begin()
            values = {q: _cell(row[q]) for q in row if q in refs}
            flags = set(filter(None, row["flags"].split(";")))
            bad = check_row(checker, values, flags, {k: v[i] for k, v in refs.items()})
            if bad:
                checker.fail(f"{name} row {i}: {bad}")


# ---------------------------------------------------------------------------
# reference values shared by figures and points


def point_references(g, alpha, r, t1, t2, phi, eta, with_minimum=False):
    """Reference arrays for every reported quantity, plus the phase slope and,
    when asked, the grid and refined minima of delta-phi over the phase."""
    import numpy as np

    import gaussian

    n_total, n_a, var_a = gaussian.photon_numbers(g, alpha, r)
    _, var_x, slope = gaussian.quadrature(g, alpha, r, t1, t2, phi)
    fisher = 4.0 * var_a
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.sqrt(np.maximum(var_x, 0.0)) / np.abs(slope)
        fl = gaussian.lossy_fisher(fisher, n_a, eta)
        refs = {
            "delta_phi": delta,
            "N": n_total,
            "sql": 1.0 / np.sqrt(n_total),
            "hl": 1.0 / n_total,
            "qfi": fisher,
            "qcrb": 1.0 / np.sqrt(fisher),
            "qfi_lossy": fl,
            "qcrb_lossy": np.where(fl == 0.0, np.inf, 1.0 / np.sqrt(fl)),
        }
    refs["_slope"] = slope
    if with_minimum:
        grid_min, refined = gaussian.min_sensitivity(g, alpha, r, t1, t2)
        refs["delta_phi_min"] = grid_min
        refs["_refined_min"] = refined
    return refs


# a quantity may come back flagged instead of as a number exactly when the
# reference says the point carries no information
_UNINFORMATIVE = 1e-9


def check_row(checker, values, flags, ref):
    """Compare one row of package values against the reference; returns a
    description of the first mismatch, or '' when the row is correct."""
    slope_zero = abs(ref["_slope"]) < _UNINFORMATIVE
    vacuum_n = ref["N"] < _UNINFORMATIVE
    vacuum_f = ref["qfi"] < _UNINFORMATIVE
    expect_flag = {
        "delta_phi": slope_zero,
        "delta_phi_min": not math.isfinite(ref.get("delta_phi_min", 0.0)),
        "N": False,
        "sql": vacuum_n,
        "hl": vacuum_n,
        "qfi": vacuum_f,
        "qcrb": vacuum_f,
        "qfi_lossy": vacuum_f,
        "qcrb_lossy": vacuum_f,
    }
    for q, value in values.items():
        if value is None:
            if not expect_flag[q] or not flags & {"divergent", "degenerate"}:
                return f"{q} flagged {sorted(flags)} but the reference is informative"
            continue
        if q == "delta_phi_min":
            # at most the dense-grid minimum, at least the refined minimum
            best, refined = ref["delta_phi_min"], ref["_refined_min"]
            checker.deviation(value, refined)
            if not refined * (1.0 - REL_TOL) <= value <= best * (1.0 + REL_TOL):
                return f"{q} {value!r} outside [{refined!r}, {best!r}]"
            continue
        if q == "qcrb_lossy" and math.isinf(ref[q]) != ("unbounded" in flags):
            return f"{q} unbounded flag disagrees with the reference"
        if checker.deviation(value, float(ref[q])) > REL_TOL:
            return f"{q} {value!r} vs reference {float(ref[q])!r}"
    return ""


# ---------------------------------------------------------------------------
# points: independent scalar queries through the library API


def points_setup(seed, su11lso, count=POINT_COUNT):
    import numpy as np

    rng = np.random.default_rng(seed)
    sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    inputs = dict(
        g=rng.uniform(0.0, 1.5, count),
        alpha=sign * rng.uniform(0.05, 2.0, count) + 1j * rng.uniform(-0.5, 0.5, count),
        r=rng.uniform(0.0, 1.2, count),
        t1=rng.uniform(0.2, 1.0, count),
        t2=rng.uniform(0.2, 1.0, count),
        phi=rng.uniform(0.05, 3.0, count),
        eta=rng.uniform(0.05, 1.0, count),
    )
    rows = [
        (float(g), complex(a), float(r), float(t1), float(t2), float(phi), float(eta))
        for g, a, r, t1, t2, phi, eta in zip(*inputs.values())
    ]
    point_query(su11lso, (0.77, 0.9 + 0.1j, 0.4, 0.8, 0.9, 1.1, 0.6))  # warm-up
    return dict(inputs=inputs, rows=rows, caches=package_caches())


def package_caches():
    """Every functools cache in the package's namespaces (moments._table)."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "su11lso" or name.startswith("su11lso."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


POINT_FIELDS = ("delta_phi", "N", "sql", "hl", "qfi", "qcrb", "qfi_lossy", "qcrb_lossy")
FLAG_BITS = {"divergent": 1, "degenerate": 2, "unbounded": 4}


def point_query(su11lso, row):
    """The point command's quantities plus the lossy pair, for one point.

    Returns (values in POINT_FIELDS order, flag bits), with None for a
    documented uninformative result.  Plain tuples of numbers leave the
    cyclic garbage collector nothing to scan, so the stored results do not
    slow later queries.
    """
    g, alpha, r, t1, t2, phi, eta = row
    p = su11lso.InterferometerParams(g=g, alpha=alpha, r=r, t1=t1, t2=t2, phi=phi)
    documented = (su11lso.DivergentSensitivityError, su11lso.DegenerateConfigurationError)
    flags = 0
    delta = sql = hl = fisher = qcrb = fisher_l = qcrb_l = None
    try:
        delta = su11lso.phase_sensitivity(p).delta_phi
    except documented as exc:
        flags |= _flag_bit(exc, su11lso)
    n_total = su11lso.total_photon_number(p)
    try:
        sql, hl = su11lso.sql_hl(p)
    except documented as exc:
        flags |= _flag_bit(exc, su11lso)
    try:
        rep = su11lso.qfi_ideal(p)
        fisher, qcrb = rep.fisher, rep.qcrb
    except documented as exc:
        flags |= _flag_bit(exc, su11lso)
    try:
        lossy = su11lso.qfi_lossy(p, eta)
        fisher_l, qcrb_l = lossy.fisher_lossy, lossy.qcrb_lossy
        if math.isinf(qcrb_l):
            flags |= FLAG_BITS["unbounded"]
    except documented as exc:
        flags |= _flag_bit(exc, su11lso)
    return (delta, n_total, sql, hl, fisher, qcrb, fisher_l, qcrb_l), flags


def _flag_bit(exc, su11lso):
    if isinstance(exc, su11lso.DivergentSensitivityError):
        return FLAG_BITS["divergent"]
    return FLAG_BITS["degenerate"]


def points_work(state, su11lso, repeats=POINT_REPEATS):
    """Queries every point `repeats` times from cold caches, each execution
    between two kernel runs; returns each point's seconds at the reference
    speed (see POINT_REPEATS).  The last execution's outputs are checked."""
    results = []
    ops = []
    raw = []
    best_over_first = []
    kernel = speed.kernel_seconds
    kernel_s = 0.0
    clock = time.perf_counter
    sampler = state["sampler"]
    for row in state["rows"]:
        times = []
        ratios = []
        for _ in range(repeats):
            for cache in state["caches"]:
                cache.cache_clear()
            spent = sampler.spent
            before = kernel()
            t0 = clock()
            try:
                out = point_query(su11lso, row)
            except Exception as exc:  # counted as a failed operation
                out = f"{type(exc).__name__}: {exc}"
            seconds = clock() - t0
            after = kernel()
            kernel_s += before + after
            times.append(seconds)
            if sampler.spent == spent:  # no speed sample landed in between
                ratios.append(2.0 * seconds / (before + after))
        if not ratios:
            ratios = [2.0 * times[-1] / (before + after)]
        ops.append(speed.REFERENCE_S * min(ratios))
        raw.append(min(times))
        best_over_first.append(min(times) / times[0] if times[0] > 0 else 1.0)
        results.append(out)
    state["results"] = results
    state["overhead_s"] = kernel_s
    state["raw_op_s"] = raw
    ratio = statistics.median(best_over_first)
    state["best_over_first"] = ratio
    if ratio < CACHE_HIT_RATIO:
        raise RuntimeError(
            f"repeated points ran {1 / ratio:.1f}x faster than their first execution: "
            "a cache outside functools caches survives between repeats"
        )
    return ops


def points_verify(state, checker):
    x = state["inputs"]
    refs = point_references(x["g"], x["alpha"], x["r"], x["t1"], x["t2"], x["phi"], x["eta"])
    for i, out in enumerate(state["results"]):
        checker.begin()
        if isinstance(out, str):
            checker.fail(f"point {i}: {out}")
            continue
        values = dict(zip(POINT_FIELDS, out[0]))
        flags = {name for name, bit in FLAG_BITS.items() if out[1] & bit}
        bad = check_row(checker, values, flags, {k: v[i] for k, v in refs.items()})
        if bad:
            checker.fail(f"point {i} {state['rows'][i]}: {bad}")


# ---------------------------------------------------------------------------
# validate: the oracle cross-check and the lossy-QFI bound


def validate_setup(seed, su11lso, grids=CHECK_GRIDS, etas=None):
    import numpy as np

    if etas is None:
        # the smallest eta keeps the most Kraus vectors and sets the peak
        # memory, so it is pinned; four more are drawn one per quarter of
        # (0.1, 0.9], which keeps the run time steady across seeds
        rng = np.random.default_rng(seed)
        etas = [0.1] + [0.1 + 0.2 * (i + rng.random()) for i in range(4)]
    su11lso.crosscheck.run_cross_check(
        alphas=(0.3,), gs=(0.2,), rs=(0.1,), t_pairs=((1.0, 1.0), (0.9, 1.0)), phis=(0.5,)
    )
    psi, _ = su11lso.fock.auto_prepared_state(0.3, 0.2, 0.1, tail_tol=MIXED_PREP_TAIL)
    su11lso.fock.mixed_qfi_from_state(psi, 0.5)
    return dict(grids=grids, phis=ACCEPTANCE_PHIS, etas=list(etas))


def validate_work(state, su11lso):
    """Runs both cross-check grids and the mixed-QFI points; the whole batch
    is the one operation timed, and each oracle engine's seconds go to the
    detail line."""
    parts = {}
    last = [time.perf_counter()]

    def progress(cells):
        c = cells[0]
        now = time.perf_counter()
        key = f"alpha={c.alpha:g} g={c.g:g} r={c.r:g} t1={c.t1:g}"
        parts[key] = parts.get(key, 0.0) + now - last[0]
        last[0] = now

    results = []
    for grid in state["grids"]:
        last[0] = time.perf_counter()
        try:
            results.append(
                su11lso.crosscheck.run_cross_check(phis=state["phis"], progress=progress, **grid)
            )
        except Exception as exc:  # NonconvergedOracleError included
            results.append(f"{type(exc).__name__}: {exc}")
    state["check_rss_mb"] = peak_rss_mb()
    mixed_start = time.perf_counter()
    p = su11lso.InterferometerParams(**MIXED_POINT)
    mixed = []
    try:
        psi, _ = su11lso.fock.auto_prepared_state(p.alpha, p.g, p.r, tail_tol=MIXED_PREP_TAIL)
    except Exception as exc:  # every eta then counts as a failed operation
        psi, prep_error = None, f"{type(exc).__name__}: {exc}"
    for eta in state["etas"]:
        if psi is None:
            mixed.append(prep_error)
            continue
        try:
            oracle = su11lso.fock.mixed_qfi_from_state(psi, eta)
            mixed.append((eta, oracle, su11lso.metrology.qfi_lossy(p, eta).fisher_lossy))
        except Exception as exc:  # counted as a failed operation
            mixed.append(f"{type(exc).__name__}: {exc}")
    state["results"] = results
    state["mixed"] = mixed
    parts["mixed QFI"] = time.perf_counter() - mixed_start
    state["part_s"] = parts


def validate_verify(state, checker):
    for result in state["results"]:
        if isinstance(result, str):
            checker.begin()
            checker.fail(result)
            continue
        for c in result.cells:
            checker.begin()
            where = f"{c.quantity} alpha={c.alpha} g={c.g} r={c.r} t1={c.t1} t2={c.t2} phi={c.phi}"
            if c.flag.endswith("mismatch"):
                checker.fail(f"{where}: {c.flag}")
            elif not c.flag and checker.deviation(c.analytic, c.oracle) > ORACLE_TOL:
                checker.fail(f"{where}: deviation {c.rel_dev:.3e}")
    for item in state["mixed"]:
        checker.begin()
        if isinstance(item, str):
            checker.fail(item)
        elif item[1] - item[2] > MIXED_SLACK:
            checker.fail(f"mixed QFI at eta={item[0]}: oracle {item[1]!r} above bound {item[2]!r}")


# (set-up, work, check, tolerance, percentile of the per-operation
# deviations reported as max_dev_over_tol or None for the maximum, whether
# the work's times are scaled to the reference host speed).
#
# validate spends its time in LAPACK and BLAS calls on two threads, which the
# host's slow state slowed by about 12% where it slowed the speed kernel by
# 65%; scaled by the kernel, its wall time spread more over five seeds than
# measured (quartile spreads 0.19, 0.17 and 0.09 against 0.15, 0.11 and 0.06
# in three trials), so its times are measured.
#
# On
# points the maximum is set by whichever random draw lands nearest a zero
# of the phase slope, where delta_phi is ill-conditioned; it moved 50x
# between seeds, and the p95 over 3,000 points still had a quartile spread
# of 9% over ten seeds (2% for the p75), so that workload reports the p75.
WORKLOADS = {
    "figures": (figures_setup, figures_work, figures_verify, REL_TOL, None, True),
    "points": (points_setup, points_work, points_verify, REL_TOL, 75.0, True),
    "validate": (validate_setup, validate_work, validate_verify, ORACLE_TOL, None, False),
}


# ---------------------------------------------------------------------------
# process-level measurements


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_threads():
    """Default thread count of each loaded OpenBLAS, read through ctypes."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            for line in f:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_record():
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError):  # show_config without mode="dicts"
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_default_threads": blas_threads(),
    }


def run(workload, seed, mode, **sizes):
    """Set up, and unless mode is 'setup', run and check one workload."""
    setup, work, verify, tolerance, dev_percentile, scaled = WORKLOADS[workload]
    t0 = time.perf_counter()
    # BLAS threads start when numpy loads and inherit this mask, so the
    # speed sampler's SIGALRM only ever reaches the main thread
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    su11lso = import_package()
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    state = setup(seed, su11lso, **sizes)
    out = {"setup_s": time.perf_counter() - t0}
    try:
        if mode != "setup":
            out.update(measure(workload, state, su11lso, work, verify, mode == "trace",
                               Checker(tolerance), dev_percentile, scaled))
    finally:
        if "out_dir" in state:
            shutil.rmtree(state["out_dir"], ignore_errors=True)
            try:
                WORK_DIR.rmdir()
            except OSError:  # another run's files are still there
                pass
    return out


def measure(workload, state, su11lso, work, verify, traced, checker, dev_percentile, scaled):
    """Time the work, read the process counters, then check the outputs.

    When scaled, every time is given at the reference host speed (speed.py)
    and the measured ones go to the detail line.  The work returns its
    operations' seconds, already scaled, or None when the whole batch is the
    one operation.
    """
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = state["sampler"] = speed.Sampler()
    if scaled:
        sampler.start()
    cpu0 = cpu_seconds()
    spent0 = sampler.spent
    w0 = time.perf_counter()
    try:
        op_times = work(state, su11lso)
    finally:
        w1 = time.perf_counter()
        spent = sampler.spent - spent0 + state.get("overhead_s", 0.0)
        cpu = cpu_seconds() - cpu0
        if scaled:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
    wall = w1 - w0
    if scaled:
        scaled_wall = float(sampler.scale([w0], [w1], [spent])[0])
        factor = scaled_wall / (wall - spent)  # mean reference-speed factor
        speed_record = dict(sampler.summary(), work_factor=factor)
    else:
        scaled_wall, factor = wall - spent, 1.0
        speed_record = "not scaled: measured times"
    if op_times is None:
        op_times, raw_times = [scaled_wall], [wall - spent]
    else:
        raw_times = state["raw_op_s"]
    out = dict(wall_s=scaled_wall, cpu_s=(cpu - spent) * factor, peak_rss_mb=peak_rss_mb())
    tail, tail_q, beyond = tail_percentile(op_times)
    out.update(
        op_p50_ms=1e3 * statistics.median(op_times), op_tail_ms=1e3 * tail,
        op_count=len(op_times), op_tail_percentile=tail_q, op_tail_beyond=beyond,
        raw=dict(wall_s=wall - spent, cpu_s=cpu - spent,
                 op_p50_ms=1e3 * statistics.median(raw_times),
                 op_tail_ms=1e3 * tail_percentile(raw_times)[0]),
        speed=speed_record,
    )
    verify(state, checker)
    out.update(
        attempted=checker.attempted, failed=checker.failed,
        max_dev_over_tol=checker.dev_over_tol(dev_percentile), failures=checker.messages,
        machine=machine_record(),
    )
    if "best_over_first" in state:
        out["points_best_over_first"] = state["best_over_first"]
    if "check_rss_mb" in state:
        out["crosscheck_peak_rss_mb"] = state["check_rss_mb"]
    if "part_s" in state:
        out["part_s"] = state["part_s"]
    if tracer is not None:
        silent = tracer.silent_hooks(workload)
        if silent:
            raise RuntimeError(f"hooks never fired on {workload}: {', '.join(silent)}")
        layers = tracer.layer_metrics(wall)
        layers["crosscheck.peak_rss_mb"] = state.get("check_rss_mb", 0.0)
        out.update(layers=layers, hooks=tracer.table())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
