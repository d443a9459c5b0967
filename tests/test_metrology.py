"""Sensitivity, photon-number benchmarks, and Fisher information."""

import cmath
import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su11lso.errors import DegenerateConfigurationError, DivergentSensitivityError
from su11lso.metrology import (
    _QUARTIC_WEIGHTS,
    PHASE_BRACKET,
    _parts,
    _stationary_quartic,
    _unit_scaled,
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sensitivity_curve,
    sql_hl,
    total_photon_number,
)
from su11lso import metrology, moments
from su11lso.moments import InterferometerParams, quadrature_stats, trig_coefficients
from su11lso.sweeps import SweepSpec, run_sweep

from companion_route import companion_optimum, stationary_quartic, unit


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

    def test_statistics_overflow_raises(self):
        # at r = 354 the harmonics are finite but the variance is not
        p = params(r=354.0, phi=0.5)
        assert all(map(cmath.isfinite, trig_coefficients(p)))
        assert math.isinf(quadrature_stats(p).variance)
        message = "homodyne statistics overflow at g=1, alpha=1+0j, r=354"
        for form in (p, [params(phi=0.5), p]):
            with pytest.raises(ValueError) as exc:
                phase_sensitivity(form)
            assert str(exc.value) == message


    @pytest.mark.parametrize("r", [20.0, 100.0, 235.0, 236.0, 300.0, 353.0])
    def test_cancelled_variance_raises(self, r):
        # near phi = pi/2, v0 + 2 Re(v1 z + v2 z^2) cancels below rounding:
        # v0 and 2|v2| grow like e^{2r}
        p = params(r=r, phi=math.pi / 2)
        assert quadrature_stats(p).variance <= 0.0
        message = f"homodyne variance cancels to <= 0 at g=1, alpha=1+0j, r={r:g}"
        for form in (p, [params(phi=0.5), p]):
            with pytest.raises(ValueError) as exc:
                phase_sensitivity(form)
            assert str(exc.value) == message


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

    def test_numpy_scalar_eta_overflow_raises_not_warns(self):
        # a numpy eta is read as a Python float, whose overflow does not warn
        p = params(g=2.0, alpha=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in (0.5, np.float64(0.5)):
                with pytest.raises(ValueError, match="lossy Fisher information overflows"):
                    qfi_lossy(p, eta)
        report = qfi_lossy(params(), np.float64(0.5))
        assert type(report.eta) is float and report == qfi_lossy(params(), 0.5)


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

    def test_overflow_is_not_divergence(self):
        # at r = 354.5 the harmonics overflow: no candidate is finite, yet
        # the phase informs
        p = params(r=354.5, phi=0.5)
        message = "homodyne statistics overflow at g=1, alpha=1+0j, r=354.5"
        for form in (p, [params(), p]):
            with pytest.raises(ValueError) as exc:
                optimal_phase(form)
            assert str(exc.value) == message
        # without displacement or with internal loss 1, r = 354 still diverges
        for q in (params(alpha=0.0, r=354.0), params(t1=0.0, r=354.0), params(t1=0.0)):
            with pytest.raises(DivergentSensitivityError):
                optimal_phase(q)
            assert optimal_phase([q, params()]).status.tolist() == ["divergent", "ok"]

    @pytest.mark.parametrize(
        "r, message",
        [
            # the variance at the best candidate cancels to <= 0: delta-phi read 0.0
            (20.0, "homodyne variance cancels to <= 0"),
            (100.0, "homodyne variance cancels to <= 0"),
            (235.0, "homodyne variance cancels to <= 0"),
            # unscaled, the quartic's products m1 v overflowed from r = 236 on;
            # scaled, its root near pi/2 is found, where the variance cancels
            (236.0, "homodyne variance cancels to <= 0"),
            (300.0, "homodyne variance cancels to <= 0"),
            (353.0, "homodyne variance cancels to <= 0"),
            (354.0, "homodyne variance cancels to <= 0"),
            # the harmonics overflow
            (354.5, "homodyne statistics overflow"),
        ],
    )
    def test_large_squeezing_raises(self, r, message):
        p = params(r=r)
        for form in (p, [params(), p], [p, params()]):
            with pytest.raises(ValueError) as exc:
                optimal_phase(form)
            assert str(exc.value) == f"{message} at g=1, alpha=1+0j, r={r:g}"

    @pytest.mark.parametrize("g", [119.0, 137.5, 150.0, 175.0, 177.5])
    def test_large_gain_is_finite(self, g):
        # unscaled, the quartic's products m1 v0 overflowed from g = 119 on,
        # though every candidate is finite; the harmonics overflow at g = 178
        p = params(g=g)
        for one in (optimal_phase(p), optimal_phase([params(), p])):
            phi, value = np.ravel(one.phi_opt)[-1], np.ravel(one.delta_phi_min)[-1]
            assert phi == PHASE_BRACKET[0]
            assert value == sensitivity_curve(p, phi) == pytest.approx(math.sqrt(0.5), rel=1e-6)
        phis = np.linspace(*PHASE_BRACKET, 2001)
        assert value <= float(np.min(sensitivity_curve(p, phis)))
        with pytest.raises(ValueError, match="homodyne statistics overflow at g=178,"):
            optimal_phase(params(g=178.0))

    def test_scaled_quartic_keeps_its_bits(self):
        # scaling m1 and the v's by powers of two scales every term alike: the
        # monic quartic and its turn are the unscaled ones', bit for
        # bit, wherever those neither overflow nor leave the normal range
        points = _random_lossy_points(500, seed=5)
        points += [params(g=g) for g in np.linspace(0.0, 118.0, 60).tolist()]
        points += [params(g=0.0, alpha=1j, r=r) for r in (0.0, 1.0, 15.0, 100.0)]
        _, m1, v0, v1, v2 = trig_coefficients(points)
        m, v = _parts(m1), _parts(v0, v1, v2)
        with np.errstate(invalid="ignore"):  # T vanishes at g = 0, alpha = 1j, r = 15, 100
            plain_turn, plain = _stationary_quartic(m, v)
            scaled_turn, scaled = _stationary_quartic(_unit_scaled(m), _unit_scaled(v))
        assert np.array_equal(plain_turn, scaled_turn)
        assert np.asarray(plain).tobytes() == np.asarray(scaled).tobytes()

    def test_strong_squeezing_below_cancellation_is_finite(self):
        # r = 15 keeps a (rounding-limited) positive minimum
        res = optimal_phase(params(r=15.0))
        assert 0.0 < res.delta_phi_min < 1e-7
        assert res.phi_opt == pytest.approx(math.pi / 2, abs=1e-6)

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
        batch = optimal_phase(points)
        assert (batch.status == "ok").all()
        for p, phi, best in zip(points, batch.phi_opt.tolist(), batch.delta_phi_min.tolist()):
            assert best == phase_sensitivity(p.replace(phi=phi)).delta_phi, p

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


def _closed_form_phases(p) -> list:
    """The four candidate phases of ``optimal_phase`` at point p, from the
    closed form on Python numbers, operation by operation; [] where the
    quartic vanishes."""
    _, m1, v0, v1, v2 = trig_coefficients(p)
    (m1,), (v0, v1, v2) = unit(m1), unit(v0, v1, v2)
    m = (m1.real, m1.imag)
    v = (v0, v1.real, v1.imag, v2.real, v2.imag)
    products = [x * y for x in m for y in v]
    turns = []
    for k in range(8):
        coeffs = []
        for i in range(5):
            weights = _QUARTIC_WEIGHTS[:, k, i].tolist()
            total = weights[0] * products[0]
            for w, product in zip(weights[1:], products[1:]):
                total += w * product
            coeffs.append(total)
        turns.append(coeffs)
    turn = max(range(8), key=lambda k: abs(turns[k][0]))
    lead, *rest = turns[turn]
    if lead == 0.0:
        return []
    a, b, c, d = (x / lead for x in rest)
    h = 0.25 * a
    hh = h * h
    p_ = b - 6.0 * hh
    q = c - h * (2.0 * b - 8.0 * hh)
    r = d - h * (c - h * (b - 3.0 * hh))
    p3 = -(p_ * p_) / 36.0 - r / 3.0
    q2 = p_ * (r / 6.0 - (p_ * p_) / 216.0) - 0.0625 * (q * q)
    disc = q2 * q2 + p3 * p3 * p3
    if disc > 0.0:
        cube = -(q2 + math.copysign(math.sqrt(disc), q2))
        u = math.copysign(abs(cube) ** (1.0 / 3.0), cube)
        x = u - p3 / u
    else:
        rho = math.sqrt(-p3)
        cosine = min(max(-q2 / max(rho * rho * rho, 5e-324), -1.0), 1.0)
        x = 2.0 * rho * math.cos(math.acos(cosine) / 3.0)
    m2 = max(2.0 * x - (2.0 / 3.0) * p_, 0.0)
    s = math.sqrt(m2)
    total = p_ + m2
    diff = math.sqrt(max(total * total - 4.0 * r, 0.0))
    if q < 0.0:
        diff = -diff
    quads = (m2 - 2.0 * (total - diff), m2 - 2.0 * (total + diff))
    centres = (-0.5 * s, 0.5 * s)
    spreads = [0.5 * math.sqrt(max(quad, 0.0)) for quad in quads]
    phis = []
    for sign in (1.0, -1.0):
        for centre, spread, quad in zip(centres, spreads, quads):
            w = (centre + sign * spread) - h
            polished = w
            if quad >= 0.0:
                for _ in range(2):
                    f = (((polished + a) * polished + b) * polished + c) * polished + d
                    slope = ((4.0 * polished + 3.0 * a) * polished + 2.0 * b) * polished + c
                    polished = polished - f / slope if slope != 0.0 else math.nan
            if math.isfinite(polished):
                w = polished
            phis.append((2.0 * math.atan(w) + (turn % 4) * (0.25 * math.pi)) % math.pi)
    return phis


def _reference_optimum(p):
    """One point through the closed form on Python numbers: the batch must
    reproduce it bit for bit; None where no phase is informative."""
    lo, hi = PHASE_BRACKET
    phis = np.array([lo, hi] + [phi for phi in _closed_form_phases(p) if lo <= phi <= hi])
    curve = sensitivity_curve(p, phis)
    best = int(np.argmin(curve))
    return (float(phis[best]), float(curve[best])) if math.isfinite(curve[best]) else None


class TestBatchOptimum:
    @given(points=st.lists(_CLI_POINTS, min_size=1, max_size=12))
    @example(points=[
        params(g=0.0),  # v1 = 0: zero outer coefficients, a quadratic
        params(alpha=0, r=0.6),  # m1 = 0: no root at all, divergent
        params(alpha=1j, t1=2.2e-311),
        # subnormal coefficients: scaled to unit size before the products
        params(g=0.0, alpha=2.7236848377039103e-261, r=1.0, t2=4.411651276914472e-127),
        params(r=0.0, t1=0.4),
        params(g=0.7, alpha=0.3 - 1.1j, r=0.9, t1=0.6, t2=0.8),
    ])
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_one_point_at_a_time(self, points):
        batch = optimal_phase(points)
        fields = (batch.phi_opt, batch.delta_phi_min, batch.status)
        assert [f.shape for f in fields] == [(len(points),)] * 3
        for p, phi, best, status in zip(points, *(f.tolist() for f in fields)):
            reference = _reference_optimum(p)
            try:
                one = optimal_phase(p)
            except DivergentSensitivityError:
                assert reference is None, p
                assert status == "divergent" and math.isnan(best) and math.isnan(phi), p
                continue
            assert status == "ok" and type(one.delta_phi_min) is float, p
            assert (phi, best) == (one.phi_opt, one.delta_phi_min), p
            assert (phi, best) == reference, p

    def test_quartic_blocks_keep_the_bits(self, monkeypatch):
        # a batch forms its quartics in blocks of points; blocks of 7 (and a
        # last one of 3) give every point the one-block bits
        points = _random_lossy_points(38, seed=5)
        whole = optimal_phase(points)
        monkeypatch.setattr(metrology, "_QUARTIC_BLOCK", 7)
        blocked = optimal_phase(points)
        for a, b in zip(dataclasses.astuple(whole), dataclasses.astuple(blocked)):
            assert a.tobytes() == b.tobytes()

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

    @pytest.mark.parametrize("variable", ["alpha", "g"])
    def test_no_eigensolve_per_series(self, monkeypatch, variable):
        # the stationary points come in closed form; an alpha = 0 row is
        # still flagged divergent, and a g = 0 row (the t^4 - 1 form) is not
        def eigvals(a):
            raise AssertionError("optimal_phase called np.linalg.eigvals")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        spec = SweepSpec(variable, 0.0, 1.5, 200, params(r=0.6), ("delta_phi_min",))
        flags = [f for cells in run_sweep(spec).series for f in cells[-1]]
        assert flags.count("divergent") == (variable == "alpha")
        assert flags[1:] == [""] * 199


# two stationary points of delta-phi merge near phi = 2.89: the real
# quartic's discriminant changes sign at this r (found by bisection)
_MERGED = params(
    g=1.7448775226511415,
    alpha=0.028699763920307042 - 0.9030253302176208j,
    r=0.46227746198816694,
    t1=0.8041273329371836,
    t2=0.8778957424182071,
)


class TestClosedFormAccuracy:
    """The closed-form optimum against the companion-matrix eigensolve
    (``companion_route``) and a dense phase grid."""

    @given(p=_CLI_POINTS)
    @example(p=params(g=0.0))  # the quartic is t^4 - 1
    @example(p=params(alpha=0.0, r=0.6))  # no quartic: divergent
    @example(p=params(t1=0.0))  # divergent
    # imaginary alpha: T(0) = T(pi) = 0, so the leading coefficient e4 in
    # tan(phi/2) vanishes, with a root at phi = pi
    @example(p=params(alpha=1j, r=0.5))
    @example(p=params(r=15.0))  # a minimum about 1e-13 wide near pi/2
    @example(p=_MERGED)
    @settings(max_examples=200, deadline=None)
    def test_matches_companion_and_dense_grid(self, p):
        reference = companion_optimum(p)
        try:
            best = optimal_phase(p).delta_phi_min
        except DivergentSensitivityError:
            assert reference is None, p
            return
        assert abs(best - reference[1]) <= 1e-13 * reference[1], p
        grid = sensitivity_curve(p, np.linspace(*PHASE_BRACKET, 10001))
        assert best <= float(np.min(grid)) * (1.0 + 1e-12), p

    def test_weights_give_the_quartic_of_each_turn(self):
        # (1 + w^2)^2 T(k pi/4 + 2 atan w) with T(phi) = c2 + 2 Re(c1 z) + 2 Re(c0 z^2),
        # and T(k pi/4 + pi) its leading coefficient
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, v = rng.normal(size=2), rng.normal(size=5)
            products = np.outer(m, v).ravel()
            m1, v0, v1, v2 = complex(*m), v[0], complex(*v[1:3]), complex(*v[3:])
            c0, c1 = m1 * v1, 2.0 * m1 * v0 + 4.0 * m1.conjugate() * v2
            c2 = 6.0 * (m1 * v1.conjugate()).real

            def t(phi):
                return c2 + 2.0 * (c1 * cmath.exp(1j * phi) + c0 * cmath.exp(2j * phi)).real

            for k in range(8):
                quartic = products @ _QUARTIC_WEIGHTS[:, k]
                assert quartic[0] == pytest.approx(t(k * math.pi / 4 + math.pi), abs=1e-12)
                for w in rng.normal(size=3):
                    expected = (1.0 + w * w) ** 2 * t(k * math.pi / 4 + 2.0 * math.atan(w))
                    assert np.polyval(quartic, w) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_merged_example_has_two_close_stationary_points(self):
        roots = np.roots(stationary_quartic(_MERGED))
        gap, i, j = min(
            (abs(roots[i] - roots[j]), i, j) for i in range(4) for j in range(i + 1, 4)
        )
        assert gap < 1e-6
        for z in roots[[i, j]]:
            assert abs(abs(z) - 1.0) < 1e-6 and abs(cmath.phase(z) % math.pi - 2.89) < 0.01

    def test_imaginary_alpha_has_no_quartic_in_tan_half_phi(self):
        # T(pi) and T(0), the outer coefficients in tan(phi/2), vanish
        c0, c1, c2 = stationary_quartic(params(alpha=1j, r=0.5))[:3]
        assert c2.real - 2.0 * c1.real + 2.0 * c0.real == 0.0
        assert c2.real + 2.0 * c1.real + 2.0 * c0.real == 0.0


def _bits(value):
    """The exact bits of a number, signed zeros included."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _outcome(fn, points):
    """The bits of every field of ``fn(points)``, or its error's type and text."""
    try:
        value = fn(points)
    except (ValueError, TypeError, IndexError) as exc:
        return type(exc).__name__, str(exc)

    def bits(v):
        if dataclasses.is_dataclass(v):
            return [bits(getattr(v, f.name)) for f in dataclasses.fields(v)]
        if isinstance(v, tuple):
            return [bits(x) for x in v]
        v = np.asarray(v)
        return v.dtype.str, v.shape, v.tobytes()

    return bits(value)


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
        # third the generating exponent itself.  A sequence raises the error
        # of some failing point alone (sweeps order them), so with one
        # failing point it raises that point's
        points = [params(g=2.0, alpha=a, phi=0.5) for a in (1.0, alpha, 1e308)]
        fn(points[0])
        alone = []
        for p in points[1:]:
            with pytest.raises(ValueError) as one:
                fn(p)
            alone.append(str(one.value))
        assert alone[0].startswith(message) and f"alpha={alpha:g}" in alone[0]
        assert alone[1].startswith("generating exponent overflows")
        for n in (2, 3):
            with pytest.raises(ValueError) as sequence:
                fn(points[:n])
            assert str(sequence.value) in alone[: n - 1]

    @pytest.mark.parametrize(
        "fn, alpha",
        [
            (total_photon_number, 1e160),
            (sql_hl, 1e160),
            (qfi_ideal, 1e160),
            (lambda p: qfi_lossy(p, 0.5), 1e160),
            (lambda p: qfi_lossy(p, 0.5), 1e100),  # F and <n_a> finite, F_L not
            (trig_coefficients, 1e307),
            (quadrature_stats, 1e307),
            (phase_sensitivity, 1e307),
            (lambda p: sensitivity_curve(p, [0.5, 1.0]), 1e307),
            (optimal_phase, 1e307),
        ],
        ids=["N", "sql_hl", "qfi", "qfi_lossy", "F_L", "trig", "stats", "delta_phi", "curve",
             "optimum"],
    )
    def test_sequence_overflow_is_no_warning(self, fn, alpha):
        # numpy's overflow inside a sequence call stays silent: the call
        # raises its ValueError under an "error" warning filter too
        points = [params(g=2.0, alpha=a, phi=0.5) for a in (1.0, alpha)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                fn(points)
        assert "overflow" in str(exc.value) and f"alpha={alpha:g}" in str(exc.value)

    @pytest.mark.parametrize(
        "fn",
        [
            trig_coefficients,
            quadrature_stats,
            phase_sensitivity,
            total_photon_number,
            sql_hl,
            qfi_ideal,
            lambda p: qfi_lossy(p, 0.5),
            lambda p: sensitivity_curve(p, [0.5, 1.0]),
            optimal_phase,
        ],
        ids=["trig", "stats", "delta_phi", "N", "sql_hl", "qfi", "qfi_lossy", "curve", "optimum"],
    )
    @pytest.mark.parametrize("alpha", [0.5, 1e160, 1e307], ids=["finite", "N", "harmonics"])
    def test_generator_reads_as_the_list(self, fn, alpha):
        # a chained call reads the sequence once, so a one-shot iterable gives
        # the list's values, statuses or error text
        points = [params(g=0.0, alpha=0.0, r=0.0), params(g=2.0, alpha=alpha, phi=0.5),
                  params(g=0.3, alpha=1.0 - 0.5j, r=0.4, t1=0.7)]
        assert _outcome(fn, (p for p in points)) == _outcome(fn, points)

    def test_chained_call_builds_the_exponent_once(self, monkeypatch):
        calls = []
        entries = moments._exponent_entries

        def counted(g, alpha, r):
            calls.append((g, alpha, r))
            return entries(g, alpha, r)

        monkeypatch.setattr(moments, "_exponent_entries", counted)
        # qfi_lossy -> qfi_ideal -> total_photon_number and sql_hl, one state
        qfi_lossy([params(g=g, r=0.2 * g) for g in (0.1, 0.5, 0.9)], 0.5)
        assert len(calls) == 1

    def test_benchmark_overflow_is_no_warning(self):
        # 1/N overflows at a subnormal N: degenerate benchmarks, not a warning
        points = [params(g=0.0, alpha=0.0, r=r) for r in (0.0, 3.993930816541486e-156)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sql_hl(points)[2].tolist() == ["degenerate", "degenerate"]


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
