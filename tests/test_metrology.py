"""Sensitivity, photon-number benchmarks, and Fisher information."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su11lso.errors import DegenerateConfigurationError, DivergentSensitivityError
from su11lso.metrology import (
    PHASE_BRACKET,
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sensitivity_curve,
    sql_hl,
    total_photon_number,
)
from su11lso.moments import InterferometerParams, quadrature_stats, trig_coefficients
from su11lso.sweeps import SweepSpec, run_sweep


def params(g=1.0, alpha=1.0, r=0.0, t1=1.0, t2=1.0, phi=0.0):
    return InterferometerParams(g=g, alpha=alpha, r=r, t1=t1, t2=t2, phi=phi)


class TestPhaseSensitivity:
    def test_divergent_without_displacement(self):
        with pytest.raises(DivergentSensitivityError):
            phase_sensitivity(params(alpha=0, r=0.5, phi=0.4))

    def test_report_composition(self):
        rep = phase_sensitivity(params(r=0.3, phi=0.7))
        assert rep.delta_phi == pytest.approx(
            math.sqrt(rep.variance) / abs(rep.dmean_dphi)
        )
        assert rep.delta_phi > 0 and math.isfinite(rep.delta_phi)

    def test_frozen_standard_circuit_value(self):
        # r = 0 reduces to the plain two-squeezer interferometer; value pinned
        # by the Fock oracle at tail mass < 1e-12
        rep = phase_sensitivity(params(g=1, alpha=1, r=0, phi=0.5))
        assert rep.delta_phi == pytest.approx(0.7076463095971671, rel=1e-8)

    def test_coherent_only_circuit(self):
        # g = 0, r = 0: phase rotation of a coherent state
        alpha = 1.0
        rep = phase_sensitivity(params(g=0, alpha=alpha, r=0, phi=0.5))
        # mean 2|a|cos(phi), variance 1, slope 2|a|sin(phi)
        assert rep.delta_phi == pytest.approx(1.0 / (2 * alpha * math.sin(0.5)))


class TestPhotonNumber:
    def test_coherent_input_only(self):
        assert total_photon_number(params(g=0, alpha=0.8, r=0)) == pytest.approx(0.64)

    def test_squeezed_vacuum(self):
        assert total_photon_number(params(g=0, alpha=0, r=0.6)) == pytest.approx(
            math.sinh(0.6) ** 2
        )

    def test_two_mode_squeezer_closed_form(self):
        n = total_photon_number(params(g=1, alpha=1, r=0))
        assert n == pytest.approx(2.0 * math.cosh(2.0) - 1.0)
        assert n == pytest.approx(6.524391382167263)

    def test_ignores_loss_and_phase(self):
        a = total_photon_number(params(r=0.5))
        b = total_photon_number(params(r=0.5, t1=0.2, t2=0.4, phi=1.0))
        assert a == b


class TestBenchmarks:
    def test_unit_photon_number(self):
        p = params(g=0, alpha=1, r=0)
        assert sql_hl(p) == pytest.approx((1.0, 1.0))

    def test_arithmetic(self):
        p = params(g=0, alpha=2, r=0)  # N = 4
        assert sql_hl(p) == pytest.approx((0.5, 0.25))

    def test_from_squeezer_photon_number(self):
        sql, hl = sql_hl(params(g=1, alpha=1, r=0))
        assert sql == pytest.approx(1.0 / math.sqrt(6.524391382167263))
        assert hl == pytest.approx(1.0 / 6.524391382167263)

    def test_vacuum_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            sql_hl(params(g=0, alpha=0, r=0))


class TestQfiIdeal:
    def test_coherent_closed_form(self):
        for a in (0.5, 1.0, 1.3):
            rep = qfi_ideal(params(g=0, alpha=a, r=0))
            assert rep.fisher == pytest.approx(4.0 * a * a, rel=1e-10)

    def test_squeezed_vacuum_closed_form(self):
        for r in (0.3, 0.6, 1.0):
            rep = qfi_ideal(params(g=0, alpha=0, r=r))
            assert rep.fisher == pytest.approx(2.0 * math.sinh(2 * r) ** 2, rel=1e-10)

    def test_frozen_corner_value(self):
        # pinned by the Fock oracle: 4 Var(n_a) at tail mass < 1e-12
        rep = qfi_ideal(params(g=1, alpha=1, r=1))
        assert rep.fisher == pytest.approx(2341.9188998755603, rel=1e-9)

    def test_qcrb_composition(self):
        rep = qfi_ideal(params(g=1, alpha=1, r=0.3))
        assert rep.qcrb == pytest.approx(1.0 / math.sqrt(rep.fisher))
        assert rep.sql**2 * rep.n_total == pytest.approx(1.0, abs=1e-10)
        assert rep.hl <= rep.sql  # N >= 1 here

    def test_vacuum_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            qfi_ideal(params(g=0, alpha=0, r=0))

    @pytest.mark.parametrize("alpha", [1e2, 1e3, 1e4])
    def test_displacement_part_is_exactly_quadratic(self, alpha):
        # Var n_a is quadratic in alpha, so F(2 alpha) - F(0) = 4 (F(alpha) - F(0));
        # subtracting the O(alpha^4) moments Q2200 and Q1100^2 loses this
        # (4.3e-8 relative at alpha = 1e4)
        def fisher(a):
            return qfi_ideal(params(g=0.5, alpha=a, r=0.6)).fisher

        f0 = fisher(0.0)
        assert fisher(2 * alpha) - f0 == pytest.approx(4 * (fisher(alpha) - f0), rel=1e-12)


class TestQfiLossy:
    def test_lossless_limit_exact(self):
        p = params(r=0.4)
        assert qfi_lossy(p, 1.0).fisher_lossy == qfi_ideal(p).fisher

    def test_full_absorption_exact(self):
        rep = qfi_lossy(params(r=0.4), 0.0)
        assert rep.fisher_lossy == 0.0
        assert rep.qcrb_lossy == math.inf

    def test_closed_form_composition(self):
        p = params(g=1, alpha=1, r=0)
        eta = 0.5
        f = qfi_ideal(p).fisher
        from su11lso.moments import q_moment

        na = q_moment(p, (1, 1, 0, 0)).real
        expected = 4 * f * eta * na / ((1 - eta) * f + 4 * eta * na)
        assert qfi_lossy(p, eta).fisher_lossy == pytest.approx(expected, rel=1e-12)

    def test_monotone_and_bounded(self):
        p = params(g=1, alpha=1, r=0.6)
        f = qfi_ideal(p).fisher
        etas = np.linspace(0, 1, 21)
        vals = [qfi_lossy(p, e).fisher_lossy for e in etas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= f + 1e-12 for v in vals)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            qfi_lossy(params(), 1.2)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_eta_non_finite(self, eta):
        with pytest.raises(ValueError):
            qfi_lossy(params(), eta)

    def test_vacuum_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            qfi_lossy(params(g=0, alpha=0, r=0), 0.5)


class TestOptimalPhase:
    def test_minimum_decreases_with_squeezing(self):
        mins = [
            optimal_phase(params(r=r)).delta_phi_min for r in (0.0, 0.3, 0.6, 1.0)
        ]
        assert all(b < a for a, b in zip(mins, mins[1:]))

    def test_optimum_away_from_zero(self):
        res = optimal_phase(params(r=1.0))
        assert res.phi_opt > 1e-2

    def test_beats_dense_grid(self):
        res = optimal_phase(params(r=0.6))
        phis = np.linspace(*PHASE_BRACKET, 20001)
        dense_min = float(np.min(sensitivity_curve(params(r=0.6), phis)))
        assert res.delta_phi_min <= dense_min + 1e-9

    def test_no_informative_phase(self):
        with pytest.raises(DivergentSensitivityError):
            optimal_phase(params(alpha=0))

    def test_minimum_bounded_by_evaluated_grid(self):
        res = optimal_phase(params(r=0.3))
        curve = sensitivity_curve(params(r=0.3), np.linspace(*PHASE_BRACKET, 501))
        assert res.delta_phi_min <= float(np.min(curve)) + 1e-12


def _random_lossy_points(count, seed):
    """Seeded points with g <= 1.5, complex |alpha| <= 2, r <= 1.2, t1, t2 in [0.2, 1]."""
    rng = np.random.default_rng(seed)
    return [
        params(
            g=rng.uniform(0.0, 1.5),
            alpha=2.0 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()),
            r=rng.uniform(0.0, 1.2),
            t1=rng.uniform(0.2, 1.0),
            t2=rng.uniform(0.2, 1.0),
        )
        for _ in range(count)
    ]


class TestExactOptimum:
    POINTS = _random_lossy_points(300, seed=11)

    def test_optimum_is_phase_sensitivity_at_phi_opt(self):
        # delta_phi_min and delta_phi come from the same arithmetic
        points = _random_lossy_points(1000, seed=24)
        for p, res in zip(points, optimal_phase(points)):
            report = phase_sensitivity(p.replace(phi=res.phi_opt))
            assert res.delta_phi_min == report.delta_phi, p

    def test_curve_does_not_depend_on_numpy_cpu_dispatch(self):
        umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2 or 1
        dispatch = getattr(umath, "__cpu_dispatch__", [])
        if not dispatch:
            pytest.skip("numpy dispatches no CPU-specific kernels here")
        script = (
            "import math, random, sys, numpy as np\n"
            "from su11lso.metrology import sensitivity_curve\n"
            "from su11lso.moments import InterferometerParams\n"
            "u = random.Random(5).uniform\n"
            "points = [InterferometerParams(g=u(0, 1.5), alpha=complex(u(-2, 2), u(-2, 2)),\n"
            "          r=u(0, 1.2), t1=u(0.2, 1), t2=u(0.2, 1)) for _ in range(500)]\n"
            "curve = sensitivity_curve(points, np.linspace(0, math.pi, 12))\n"
            "sys.stdout.write(curve.tobytes().hex())\n"
        )
        base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        out = []
        for env in (base, dict(base, NPY_DISABLE_CPU_FEATURES=" ".join(dispatch))):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_no_worse_than_dense_grid(self):
        for p in self.POINTS:
            res = optimal_phase(p)
            dense = sensitivity_curve(p, np.linspace(*PHASE_BRACKET, 20001))
            assert res.delta_phi_min <= float(np.min(dense)) * (1.0 + 1e-12), p

    def test_optimum_inside_bracket(self):
        for p in self.POINTS:
            res = optimal_phase(p)
            assert PHASE_BRACKET[0] <= res.phi_opt <= PHASE_BRACKET[1]
            assert res.delta_phi_min == float(sensitivity_curve(p, np.array([res.phi_opt]))[0])

    def test_optimum_is_bracket_end_or_stationary(self):
        h = 1e-5
        interior = 0
        for p in self.POINTS:
            res = optimal_phase(p)
            if res.phi_opt in PHASE_BRACKET:
                continue
            interior += 1
            f_minus, f_0, f_plus = sensitivity_curve(p, res.phi_opt + np.array([-h, 0.0, h]))
            centred = (f_plus - f_minus) / (2.0 * h)
            # the centred difference's own error: second-order term plus rounding
            step_error = abs(f_plus - 2.0 * f_0 + f_minus) / h + 1e-13 * f_0 / h
            assert abs(centred) <= step_error, (p, centred, step_error)
        assert interior > 0

    @pytest.mark.parametrize("t1", [0.0, 2.2e-311])
    def test_no_information_without_internal_transmission(self, t1):
        # a subnormal t1 leaves the quartic's outer coefficients subnormal
        with pytest.raises(DivergentSensitivityError):
            optimal_phase(params(alpha=1j, t1=t1))


# the point domain the command line accepts (see test_sweeps_cli)
_CLI_POINTS = st.builds(
    lambda g, re_a, im_a, r, t1, t2: params(g=g, alpha=complex(re_a, im_a), r=r, t1=t1, t2=t2),
    g=st.floats(0, 2),
    re_a=st.floats(-3, 3),
    im_a=st.floats(-3, 3),
    r=st.floats(0, 1.5),
    t1=st.one_of(st.just(2.2e-311), st.floats(0, 1)),
    t2=st.floats(0, 1),
)


def _reference_optimum(p):
    """One point through np.roots, with Python complex arithmetic: the
    batch must reproduce it bit for bit; None where no phase is informative."""
    _, m1, v0, v1, v2 = trig_coefficients(p)
    mc = m1.conjugate()
    quartic = np.array([
        m1 * v1,
        2.0 * m1 * v0 + 4.0 * mc * v2,
        6.0 * (m1 * v1.conjugate()).real,
        4.0 * m1 * v2.conjugate() + 2.0 * mc * v0,
        mc * v1.conjugate(),
    ])
    scale = np.abs(quartic).max()
    if 0.0 < scale < 2.0**-600:
        quartic = quartic * 2.0**600
        scale = np.abs(quartic).max()
    if scale > 0.0:
        quartic = np.where(np.abs(quartic) > 1e-15 * scale, quartic / scale, 0.0)
    roots = np.angle(np.roots(quartic)) % math.pi
    lo, hi = PHASE_BRACKET
    phis = np.concatenate(([lo, hi], roots[(roots >= lo) & (roots <= hi)]))
    curve = sensitivity_curve(p, phis)
    best = int(np.argmin(curve))
    return (float(phis[best]), float(curve[best])) if math.isfinite(curve[best]) else None


class TestBatchOptimum:
    @given(points=st.lists(_CLI_POINTS, min_size=1, max_size=12))
    @example(points=[
        params(g=0.0),  # v1 = 0: zero outer coefficients, a quadratic
        params(alpha=0, r=0.6),  # m1 = 0: no root at all, divergent
        params(alpha=1j, t1=2.2e-311),
        # subnormal coefficients: lifted by 2^600 before scaling
        params(g=0.0, alpha=2.7236848377039103e-261, r=1.0, t2=4.411651276914472e-127),
        params(r=0.0, t1=0.4),
        params(g=0.7, alpha=0.3 - 1.1j, r=0.9, t1=0.6, t2=0.8),
    ])
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_one_point_at_a_time(self, points):
        batch = optimal_phase(points)
        assert len(batch) == len(points)
        for p, res in zip(points, batch):
            reference = _reference_optimum(p)
            try:
                one = optimal_phase(p)
            except DivergentSensitivityError:
                assert reference is None, p
                assert res.delta_phi_min == math.inf and math.isnan(res.phi_opt), p
                continue
            assert (res.phi_opt, res.delta_phi_min) == (one.phi_opt, one.delta_phi_min), p
            assert (res.phi_opt, res.delta_phi_min) == reference, p

    def test_batch_curve_rows_are_single_point_curves(self):
        points = _random_lossy_points(20, seed=3)
        phis = np.linspace(0.0, 3.0, 7)
        batch = sensitivity_curve(points, phis)
        assert batch.shape == (20, 7)
        for p, row in zip(points, batch):
            assert np.array_equal(row, sensitivity_curve(p, phis))
            # a scalar phase gives a scalar, the row's bits at that phase
            one = sensitivity_curve(p, phis[2])
            assert np.shape(one) == () and one.tobytes() == row[2].tobytes()

    @pytest.mark.parametrize(
        "variable, start, shapes",
        [
            # alpha = 0 has an all-zero quartic: no companion at all
            ("alpha", 0.0, [(199, 4, 4)]),
            # g = 0 keeps np.roots' stripped 2x2 companion
            ("g", 0.0, [(199, 4, 4), (1, 2, 2)]),
        ],
    )
    def test_one_stacked_eigensolve_per_series(self, monkeypatch, variable, start, shapes):
        seen = []
        eigvals = np.linalg.eigvals

        def counting(a):
            seen.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        spec = SweepSpec(variable, start, 1.5, 200, params(r=0.6), ("delta_phi_min",))
        rows = run_sweep(spec)
        assert sorted(seen, reverse=True) == shapes
        assert [row["flags"] for row in rows].count("divergent") == (variable == "alpha")


def _bits(value):
    """The exact bits of a number, signed zeros included."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _one(fn, *args):
    """(status, result) of a single-point call, the status a sequence reports."""
    try:
        return "ok", fn(*args)
    except DivergentSensitivityError:
        return "divergent", None
    except DegenerateConfigurationError:
        return "degenerate", None


class TestSequenceForms:
    """A sequence of points gives each point's single-point bits as (n,)
    arrays, and a status where the single point raises."""

    @given(points=st.lists(_CLI_POINTS, min_size=1, max_size=12), eta=st.floats(0, 1))
    @example(points=[
        params(g=0.0, alpha=0.0, r=0.0),  # the vacuum: divergent and degenerate
        params(alpha=-0.0, t1=0.0),
        params(g=-0.0, alpha=complex(-0.0, -0.0), r=0.3),
        params(alpha=1e-200, r=0.0, g=0.0),  # N below the smallest normal
    ], eta=0.0)
    @example(points=[params(alpha=0.4 - 0.2j, r=0.7, t2=0.0)], eta=1.0)
    @settings(max_examples=60, deadline=None)
    def test_sequence_equals_one_point_at_a_time(self, points, eta):
        trig = trig_coefficients(points)
        stats = quadrature_stats(points)
        sens = phase_sensitivity(points)
        n_total = total_photon_number(points)
        sql, hl, bench = sql_hl(points)
        qfi = qfi_ideal(points)
        lossy = qfi_lossy(points, eta)
        for i, p in enumerate(points):
            one = trig_coefficients(p)
            assert [type(c) for c in one] == [float, complex, float, complex, complex]
            assert [_bits(c[i]) for c in trig] == [_bits(c) for c in one], p
            one = quadrature_stats(p)
            for name in ("mean", "second_moment", "variance", "dmean_dphi"):
                assert type(getattr(one, name)) is float
                assert _bits(getattr(stats, name)[i]) == _bits(getattr(one, name)), (p, name)
            cases = [
                (sens, _one(phase_sensitivity, p), ("delta_phi",)),
                (qfi, _one(qfi_ideal, p), ("n_total", "sql", "hl", "fisher", "qcrb")),
                (lossy, _one(qfi_lossy, p, eta), ("fisher_lossy", "qcrb_lossy")),
            ]
            for report, (status, single), names in cases:
                assert report.status[i] == status, (p, names)
                for name in names:
                    if single is None:
                        assert math.isnan(getattr(report, name)[i]) != (name == "n_total")
                        continue
                    assert type(getattr(single, name)) is float
                    assert _bits(getattr(report, name)[i]) == _bits(getattr(single, name))
            assert _bits(n_total[i]) == _bits(total_photon_number(p))
            status, single = _one(sql_hl, p)
            assert bench[i] == status
            if single is not None:
                assert (_bits(sql[i]), _bits(hl[i])) == (_bits(single[0]), _bits(single[1]))

    @pytest.mark.parametrize(
        "fn, alpha, message",
        [
            (total_photon_number, 1e160, "photon number N overflows"),
            (qfi_ideal, 1e160, "Fisher information overflows"),
            (lambda p: qfi_lossy(p, 0.5), 1e160, "Fisher information overflows"),
            (phase_sensitivity, 1e307, "homodyne statistics overflow"),
        ],
    )
    def test_sequence_overflow_names_the_first_point(self, fn, alpha, message):
        # the first point overflows nothing, the second this quantity, the
        # third the generating exponent itself
        points = [params(g=2.0, alpha=a, phi=0.5) for a in (1.0, alpha, 1e308)]
        with pytest.raises(ValueError) as one:
            fn(points[1])
        with pytest.raises(ValueError) as sequence, np.errstate(over="ignore", invalid="ignore"):
            fn(points)
        assert str(sequence.value) == str(one.value)
        assert str(one.value).startswith(message) and f"alpha={alpha:g}" in str(one.value)


class TestTrendInvariants:
    def test_loss_degrades_sensitivity_monotonically(self):
        ts = np.linspace(0.2, 1.0, 9)
        internal = [
            optimal_phase(params(r=0.6, t1=t)).delta_phi_min for t in ts
        ]
        external = [
            optimal_phase(params(r=0.6, t2=t)).delta_phi_min for t in ts
        ]
        assert all(b <= a + 1e-12 for a, b in zip(internal, internal[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(external, external[1:]))

    def test_internal_loss_hurts_more(self):
        for t in np.linspace(0.2, 0.9, 8):
            internal = optimal_phase(params(r=0.6, t1=t)).delta_phi_min
            external = optimal_phase(params(r=0.6, t2=t)).delta_phi_min
            assert internal >= external - 1e-12

    def test_cramer_rao_consistency(self):
        for r in (0.0, 0.3, 1.0):
            p = params(r=r)
            best = optimal_phase(p).delta_phi_min
            assert best >= qfi_ideal(p).qcrb - 1e-9

    def test_benchmark_beating(self):
        sql, hl = sql_hl(params(r=0))
        assert optimal_phase(params(r=0)).delta_phi_min > sql
        assert optimal_phase(params(r=0.3)).delta_phi_min < sql
        assert optimal_phase(params(r=1.0)).delta_phi_min < hl
