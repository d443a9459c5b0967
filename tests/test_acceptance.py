"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here and nowhere else.  The heavy criteria drive the
Fock oracle at convergence settings chosen two or more decades inside the
comparison tolerances; everything analytic runs at full resolution.
"""

import math
import time

import numpy as np
import pytest

from su11lso import fock
from su11lso.crosscheck import CellResult, CrossCheckResult, run_cross_check
from su11lso.errors import DivergentSensitivityError
from su11lso.metrology import (
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sql_hl,
    total_photon_number,
)
from su11lso.moments import InterferometerParams, quadrature_stats
from su11lso.sweeps import R_SERIES, figure_preset, render_csv, run_sweep


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_cross_path_equivalence():
    res = run_cross_check(rel_tol=1e-6)
    detail = (
        f"max dev: N {res.max_deviation('N'):.2e}, F {res.max_deviation('F'):.2e}, "
        f"delta_phi {res.max_deviation('delta_phi'):.2e}; mismatches {res.mismatches}; "
        f"runtime {res.runtime:.0f}s"
    )
    ok = res.passed and res.runtime <= 300.0
    _report(1, "cross-path equivalence (1e-6, <=5min)", ok, detail)


def test_criterion_01_reads_the_check_verdict(monkeypatch):
    # the criterion takes the check's own verdict, not a recount of its cells
    cell = CellResult("N", 0.5, 0.5, 0.5, None, None, None, 1.0, 1.0, 0.0)
    monkeypatch.setitem(globals(), "run_cross_check", lambda **kw: CrossCheckResult(1e-6, [cell]))
    monkeypatch.setattr(CrossCheckResult, "passed", property(lambda self: False))
    with pytest.raises(AssertionError, match="criterion 1 "):
        test_criterion_01_cross_path_equivalence()


def test_criterion_02_standard_interferometer_reduction():
    worst = 0.0
    for alpha, g in [(0.5, 1.0), (1.0, 0.6), (1.0, 1.0)]:
        base = InterferometerParams(g=g, alpha=alpha, r=0.0)
        engine = fock.SensitivityOracle(alpha, g, 0.0, prep_tail_tol=1e-12)
        n_dev = abs(total_photon_number(base) - engine.photon_number()) / max(
            engine.photon_number(), 1e-12
        )
        f_dev = abs(qfi_ideal(base).fisher - engine.fisher_pure()) / engine.fisher_pure()
        worst = max(worst, n_dev, f_dev)
        for t1, t2, phi in [(1.0, 1.0, 0.5), (1.0, 1.0, 1.0), (0.8, 0.9, 0.7)]:
            p = base.replace(t1=t1, t2=t2, phi=phi)
            stats = engine.quadrature_statistics({t1: (t2,)}, (phi,))
            mean, second, slope = stats[(t1, t2, phi)]
            oracle = math.sqrt(max(second - mean * mean, 0.0)) / abs(slope)
            dev = abs(phase_sensitivity(p).delta_phi - oracle) / oracle
            worst = max(worst, dev)
    _report(2, "reduction to the standard circuit at r=0 (1e-8)", worst <= 1e-8,
            f"worst rel dev {worst:.2e}")


def test_criterion_03_sensitivity_gain_with_squeezing():
    base = InterferometerParams(g=1, alpha=1, r=0)
    results = [optimal_phase(base.replace(r=r)) for r in (0.0, 0.3, 0.6, 1.0)]
    mins = [res.delta_phi_min for res in results]
    strictly_decreasing = all(b < a for a, b in zip(mins, mins[1:]))
    away_from_zero = all(res.phi_opt > 1e-3 for res in results)
    _report(
        3,
        "squeezing strictly improves the optimal sensitivity, optimum off zero",
        strictly_decreasing and away_from_zero,
        "min delta-phi: " + ", ".join(f"{m:.4f}" for m in mins),
    )


def test_criterion_04_loss_trends():
    base = InterferometerParams(g=1, alpha=1, r=0.6)
    ts = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    internal = [optimal_phase(base.replace(t1=t)).delta_phi_min for t in ts]
    external = [optimal_phase(base.replace(t2=t)).delta_phi_min for t in ts]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(internal, internal[1:]))
    non_increasing &= all(b <= a + 1e-12 for a, b in zip(external, external[1:]))
    internal_worse = all(i >= e - 1e-12 for i, e in zip(internal[:-1], external[:-1]))
    strict_at_half = internal[ts.index(0.5)] > external[ts.index(0.5)]
    _report(
        4,
        "loss degrades sensitivity monotonically; internal loss hurts more",
        non_increasing and internal_worse and strict_at_half,
        f"at T=0.5: internal {internal[3]:.4f} vs external {external[3]:.4f}",
    )


def test_criterion_05_benchmark_comparisons():
    base = InterferometerParams(g=1, alpha=1, r=0)
    sql, hl = sql_hl(base)
    no_squeeze = optimal_phase(base).delta_phi_min
    small = optimal_phase(base.replace(r=0.3)).delta_phi_min
    large = optimal_phase(base.replace(r=1.0)).delta_phi_min
    ok = (no_squeeze > sql) and (small < sql) and (large < hl)
    _report(
        5,
        "shot-noise and Heisenberg benchmark crossings",
        ok,
        f"r=0: {no_squeeze:.4f} > SQL {sql:.4f}; r=0.3: {small:.4f} < SQL; "
        f"r=1: {large:.4f} < HL {hl:.4f}",
    )


def test_criterion_06_qfi_identities():
    worst_closed = 0.0
    for a in (0.4, 1.0, 1.3):
        f = qfi_ideal(InterferometerParams(g=0, alpha=a, r=0)).fisher
        worst_closed = max(worst_closed, abs(f - 4 * a * a) / (4 * a * a))
    for r in (0.3, 0.6, 1.0):
        f = qfi_ideal(InterferometerParams(g=0, alpha=0, r=r)).fisher
        ref = 2.0 * math.sinh(2 * r) ** 2
        worst_closed = max(worst_closed, abs(f - ref) / ref)
    worst_oracle = 0.0
    for g, a, r in [(1.0, 1.0, 0.6), (0.7, 0.5, 1.0)]:
        p = InterferometerParams(g=g, alpha=a, r=r)
        oracle = fock.SensitivityOracle(a, g, r, prep_tail_tol=1e-12).fisher_pure()
        worst_oracle = max(worst_oracle, abs(qfi_ideal(p).fisher - oracle) / oracle)
    ok = worst_closed <= 1e-10 and worst_oracle <= 1e-8
    _report(6, "Fisher-information identities (closed forms 1e-10, oracle 1e-8)",
            ok, f"closed-form dev {worst_closed:.2e}, oracle dev {worst_oracle:.2e}")


def test_criterion_07_lossy_fisher_information():
    p = InterferometerParams(g=1, alpha=1, r=0.6)
    fisher = qfi_ideal(p).fisher
    exact_limits = (
        qfi_lossy(p, 1.0).fisher_lossy == fisher
        and qfi_lossy(p, 0.0).fisher_lossy == 0.0
    )
    etas = np.linspace(0.0, 1.0, 21)
    fl = [qfi_lossy(p, float(e)).fisher_lossy for e in etas]
    monotone = all(b >= a - 1e-12 for a, b in zip(fl, fl[1:]))
    psi, _ = fock.auto_prepared_state(p.alpha, p.g, p.r, tail_tol=1e-12)
    worst_gap = -math.inf
    bound_ok = True
    for e, bound in zip(etas, fl):
        oracle = fock.mixed_qfi_from_state(psi, float(e))
        gap = oracle - bound  # Escher upper bound: oracle <= bound (+slack)
        worst_gap = max(worst_gap, gap)
        bound_ok &= gap <= 1e-8
    _report(
        7,
        "lossy Fisher information: exact limits, monotone, upper-bounds the truth",
        exact_limits and monotone and bound_ok,
        f"max (oracle - bound) {worst_gap:.2e}",
    )


def test_criterion_08_derivative_correctness():
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        p = InterferometerParams(
            g=rng.uniform(0.1, 1.2),
            alpha=complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)),
            r=rng.uniform(0.0, 1.2),
            t1=rng.uniform(0.2, 1.0),
            t2=rng.uniform(0.2, 1.0),
            phi=rng.uniform(0.1, 3.0),
        )
        analytic = quadrature_stats(p).dmean_dphi
        fd = (
            quadrature_stats(p.replace(phi=p.phi + h)).mean
            - quadrature_stats(p.replace(phi=p.phi - h)).mean
        ) / (2 * h)
        worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-9))
    _report(8, "analytic phase derivative vs central differences (1e-7)",
            worst <= 1e-7, f"worst rel dev {worst:.2e}")


def _series_values(result, quantity):
    """One quantity's cells by series label."""
    i = result.columns.index(quantity)
    return {cells[0][0]: cells[i] for cells in result.series}


def test_criterion_09_figure_trends():
    ok = True
    notes = []
    for name, quantity, direction in [
        ("fig7a", "qfi", +1),
        ("fig7b", "qfi", +1),
        ("fig8a", "qcrb", -1),
        ("fig8b", "qcrb", -1),
        ("fig11a", "qfi_lossy", +1),
        ("fig11b", "qfi_lossy", +1),
    ]:
        result = run_sweep(figure_preset(name, points=25))
        for label, vals in _series_values(result, quantity).items():
            vals = [v for v in vals if v is not None]
            mono = all(
                (b - a) * direction > 0 for a, b in zip(vals, vals[1:])
            )
            if not mono:
                ok = False
                notes.append(f"{name}/{label} not monotone")
    # increasing in r at fixed grid point, for each swept figure
    for name, quantity, direction in [("fig7a", "qfi", +1), ("fig8a", "qcrb", -1)]:
        result = run_sweep(figure_preset(name, points=5))
        by_series = _series_values(result, quantity)
        stacks = [by_series[f"r={r:g}"] for r in R_SERIES]
        for point in zip(*stacks):
            vals = [v for v in point if v is not None]
            if not all((b - a) * direction > 0 for a, b in zip(vals, vals[1:])):
                ok = False
                notes.append(f"{name} not monotone in r")
    # lossy Fisher information improves with transmittance
    result = run_sweep(figure_preset("fig10", points=21))
    for label, vals in _series_values(result, "qfi_lossy").items():
        if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
            ok = False
            notes.append(f"fig10/{label} F_L not improving")
    for label, vals in _series_values(result, "qcrb_lossy").items():
        if not all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])):
            ok = False
            notes.append(f"fig10/{label} QCRB_L not improving")
    _report(9, "figure trends: monotone Fisher information and bounds",
            ok, "; ".join(notes) if notes else "all monotone")


def test_criterion_10_determinism(tmp_path):
    spec = figure_preset("fig2")
    first = render_csv(run_sweep(spec)).encode()
    second = render_csv(run_sweep(spec)).encode()
    (tmp_path / "fig2_a.csv").write_bytes(first)
    (tmp_path / "fig2_b.csv").write_bytes(second)
    _report(10, "repeated figure runs are byte-identical", first == second,
            f"{len(first)} bytes")
