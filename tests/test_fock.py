"""Fock-space oracle: gates, channels, diagnostics, and cross-path locks."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from density_route import (
    FockDensityOperator,
    KrausChannel,
    apply_loss,
    density_quadrature_stats,
    loss_kraus_rows,
    pure_moment,
)
from scipy.linalg import expm

from su11lso import crosscheck, fock
from su11lso.errors import InsufficientCutoffError, NonconvergedOracleError
from su11lso.metrology import qfi_ideal
from su11lso.moments import InterferometerParams, q_moment, quadrature_stats


def dense_ladder(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


class TestBuildInput:
    def test_vacuum(self):
        st = fock.build_input(0.0, 6, 4)
        assert st.shape == (6, 4)
        assert st[0, 0] == 1.0
        assert np.count_nonzero(st) == 1

    def test_poisson_mean(self):
        st = fock.build_input(1.0, 20, 2)
        na, _, _ = fock.photon_number_stats(st)
        assert na == pytest.approx(1.0, abs=1e-10)

    def test_normalized(self):
        st = fock.build_input(1.5, 25, 2)
        assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)

    def test_leaky_cutoff_rejected(self):
        with pytest.raises(InsufficientCutoffError):
            fock.build_input(2.0, 8, 4)

    def test_first_squeezer_sweeps_only_the_held_sectors(self, monkeypatch):
        # amplitudes under 1e-32 in weight are zeroed, so the first squeezer
        # skips their sectors: it sweeps 21 of the 427 at alpha 0.5
        psi = fock.build_input(0.5, 427, 57)
        held = np.flatnonzero(psi[:, 0])
        assert held.tolist() == list(range(21))
        assert np.abs(psi[held, 0]).min() ** 2 >= 1e-32
        calls = []
        sector_exp = fock._sector_exp
        monkeypatch.setattr(
            fock, "_sector_exp", lambda x, *args: calls.append(len(x)) or sector_exp(x, *args)
        )
        fock.apply_two_mode_squeezer(psi, 1.0)
        assert len(calls) == len(held)

    def test_cut_moves_the_prepared_state_at_rounding_level(self):
        # against the same gates on the whole coherent column
        alpha, g, r, d_a, d_b = 0.5, 1.0, 0.5, 164, 57
        n = np.arange(d_a)
        log_amps = n * math.log(alpha) - 0.5 * alpha**2 - 0.5 * np.array(
            [math.lgamma(k + 1.0) for k in n]
        )
        full = np.zeros((d_a, d_b), dtype=complex)
        full[:, 0] = np.exp(log_amps)
        assert np.count_nonzero(full[:, 0]) > 100
        full = fock.apply_single_mode_squeezer(fock.apply_two_mode_squeezer(full, g), r)
        cut = fock.prepared_state(alpha, g, r, d_a, d_b)
        assert np.abs(cut - full).max() <= 1e-14 * np.abs(full).max()


class TestGatesAgainstDenseExpm:
    """The sector-eigendecomposition exponentials against scipy expm."""

    # xi = g e^{i theta} with theta 0 or pi is the signed gain g cos(theta):
    # pi is the phase-flipped squeezer.  The two tiny gains take the
    # near-singular full-spectrum fallback
    @pytest.mark.parametrize(
        "g,theta", [(0.7, 0.0), (0.5, math.pi), (1e-9, math.pi), (1e-200, 0.0)]
    )
    @pytest.mark.parametrize("d_a,d_b", [(9, 7), (10, 8)])
    def test_two_mode_squeezer(self, g, theta, d_a, d_b):
        a = np.kron(dense_ladder(d_a), np.eye(d_b))
        b = np.kron(np.eye(d_a), dense_ladder(d_b))
        xi = g * np.exp(1j * theta)
        u_ref = expm(np.conj(xi) * (a @ b) - xi * (a.conj().T @ b.conj().T))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(d_a * d_b, 3)) + 1j * rng.normal(size=(d_a * d_b, 3))
        got = fock.apply_two_mode_squeezer_batch(x.copy(), g * math.cos(theta), d_a, d_b)
        assert np.abs(got - u_ref @ x).max() < 1e-12

    def test_single_mode_squeezer(self):
        # an odd d gives chains of unequal length, d = 1 an empty odd chain
        # and d = 2 two one-level chains
        for d in (1, 2, 3, 12, 13):
            a = dense_ladder(d)
            gen = 0.5 * 0.8 * (a.T @ a.T - a @ a)
            got = fock.apply_single_mode_squeezer(np.eye(d, dtype=complex), 0.8)
            assert np.abs(got - expm(gen)).max() < 1e-12, d

    def test_single_mode_squeezer_forms_no_dense_operator(self):
        # each parity chain acts on its rows of the state, its real
        # eigenvectors never copied as complex: the peak stays a few bytes per
        # d_a^2 cell (a dense d_a x d_a operator took 30, complex copies 6.1)
        d_a, d_b = 2000, 8
        psi = fock.build_input(0.0, d_a, d_b)
        tracemalloc.start()
        try:
            fock.apply_single_mode_squeezer(psi, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * d_a * d_a


class TestGatePhysics:
    def test_two_mode_identity_at_zero_gain(self):
        st = fock.build_input(0.7, 16, 4)
        out = fock.apply_two_mode_squeezer(st, 0.0)
        assert np.array_equal(out, st)

    def test_two_mode_vacuum_photon_number(self):
        st = fock.apply_two_mode_squeezer(fock.build_input(0.0, 30, 30), 1.0)
        na, _, nb = fock.photon_number_stats(st)
        assert na == pytest.approx(math.sinh(1.0) ** 2, abs=1e-6)
        assert nb == pytest.approx(na, abs=1e-12)

    def test_unitarity(self):
        st = fock.prepared_state(0.8, 0.9, 0.6, 120, 60)
        assert abs(np.linalg.norm(st) - 1.0) < 1e-9

    def test_single_mode_identity_and_photon_number(self):
        st = fock.build_input(0.0, 40, 2)
        assert np.array_equal(fock.apply_single_mode_squeezer(st, 0.0), st)
        sq = fock.apply_single_mode_squeezer(st, 0.6)
        na, _, _ = fock.photon_number_stats(sq)
        assert na == pytest.approx(math.sinh(0.6) ** 2, abs=1e-10)

    def test_squeezed_vacuum_pair_moment_sign(self):
        # <a^2> = +cosh(r) sinh(r) locks the squeezer phase convention to the
        # generating-function coefficients
        sq = fock.apply_single_mode_squeezer(fock.build_input(0.0, 40, 2), 0.6)
        got = pure_moment(sq, (0, 2, 0, 0))
        assert got.real == pytest.approx(math.cosh(0.6) * math.sinh(0.6), abs=1e-9)
        assert abs(got.imag) < 1e-12

    def test_phase_gate(self):
        # the sweep's phase factors e^{-i phi n_a}, one column per phase
        st = fock.build_input(1.0, 20, 2)
        factors = fock._phase_factors(np.arange(20), (0.0, 2 * math.pi, 0.7))
        zero, full_turn, rotated = factors.T[:, :, None] * st
        assert np.array_equal(zero, st)
        assert np.abs(full_turn - st).max() < 1e-12
        assert pure_moment(rotated, (0, 1, 0, 0)) == pytest.approx(
            np.exp(-1j * 0.7)
        )


class TestLossChannel:
    def test_identity_at_full_transmission(self):
        st = fock.prepared_state(0.5, 0.4, 0.3, 12, 8)
        rho = apply_loss(st, KrausChannel(1.0, "a"))
        expected = np.outer(st, st.conj())
        assert np.abs(rho.matrix - expected).max() < 1e-14

    def test_coherent_state_stays_coherent(self):
        st = fock.build_input(0.9, 20, 1)
        rho = apply_loss(st, KrausChannel(0.7, "a"))
        na = float((np.diag(rho.matrix).real * np.arange(20)).sum())
        assert na == pytest.approx(0.7 * 0.81, abs=1e-12)
        # purity of a coherent state survives loss
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_complete_absorption(self):
        st = fock.prepared_state(0.5, 0.4, 0.3, 12, 8)
        rho = apply_loss(st, KrausChannel(0.0, "a"))
        pa = rho.marginal_a()
        assert pa[0] == pytest.approx(1.0, abs=1e-12)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_trace_preserved(self):
        st = fock.prepared_state(0.6, 0.5, 0.4, 14, 10)
        rho = apply_loss(st, KrausChannel(0.63, "a"))
        assert rho.trace() == pytest.approx(1.0, abs=1e-10)
        rho2 = apply_loss(rho, KrausChannel(0.8, "b"))
        assert rho2.trace() == pytest.approx(1.0, abs=1e-10)

    def test_kraus_completeness_on_populated_subspace(self):
        st = fock.prepared_state(0.7, 0.6, 0.5, 16, 10)
        _, w = loss_kraus_rows(st, 0.7, weight_tol=1e-15)
        assert w.sum() == pytest.approx(np.linalg.norm(st) ** 2, abs=1e-12)

    def test_matches_explicit_beam_splitter_ancilla(self):
        # fictitious-BS picture with an explicit vacuum ancilla at d = 8
        d, t = 8, 0.7
        st = fock.apply_single_mode_squeezer(fock.build_input(0.3, d, 1), 0.3)
        vec = st[:, 0]
        a = np.kron(dense_ladder(d), np.eye(d))
        v = np.kron(np.eye(d), dense_ladder(d))
        theta = math.acos(math.sqrt(t))
        u = expm(theta * (a.conj().T @ v - a @ v.conj().T))
        joint = u @ np.kron(vec, np.eye(d)[0])
        rho_ref = np.einsum(
            "iv,jv->ij", joint.reshape(d, d), joint.reshape(d, d).conj()
        )
        rho = apply_loss(st, KrausChannel(t, "a"))
        assert np.abs(rho.matrix - rho_ref).max() < 1e-12


class TestSweepKrausFamily:
    """The sweep's compressed Kraus family against the reference Kraus rows."""

    @pytest.mark.parametrize("t1", [0.0, 0.3, 0.7])
    def test_mixture_matches_reference_rows(self, t1):
        # a tolerance under the 1e-12 comparison, so truncation cannot hide in it
        eng = fock.SensitivityOracle(0.5, 0.5, 0.5, kraus_tol=1e-13)
        eng.prep = fock.prepared_state(0.7, 0.6, 0.5, 16, 10)
        rows = eng._kraus_rows_for(t1)
        ref, _ = loss_kraus_rows(eng.prep, t1, weight_tol=1e-16)
        mixture = rows.T @ rows.conj()
        assert np.abs(mixture - ref.T @ ref.conj()).max() < 1e-12
        kept_weight = np.vdot(rows, rows).real
        assert abs(kept_weight - np.linalg.norm(eng.prep) ** 2) <= eng.kraus_tol

    def test_lossless_family_is_the_prep_state(self):
        eng = fock.SensitivityOracle(0.5, 0.5, 0.5)
        rows = eng._kraus_rows_for(1.0)
        assert rows.shape == (1, eng.prep.size)
        assert np.array_equal(rows[0], eng.prep.reshape(-1))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: fock.SensitivityOracle(1e200, 0.5, 0.5), NonconvergedOracleError, "start grid"),
        (lambda: fock.auto_prepared_state(1e200, 0.5, 0.5), NonconvergedOracleError, "start grid"),
        (lambda: fock.SensitivityOracle(math.nan, 0.5, 0.5), ValueError, "alpha must be finite"),
        (lambda: fock.SensitivityOracle(math.inf, 0.5, 0.5), ValueError, "alpha must be finite"),
        (lambda: fock.SensitivityOracle(0.5, math.nan, 0.5), ValueError, "g must be finite"),
        (lambda: fock.SensitivityOracle(0.5, 0.5, -1.0), ValueError, "squeezing r"),
        (lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, tail_tol=math.nan), ValueError, "tail_tol"),
        (lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, tail_tol=-1.0), ValueError, "tail_tol"),
        (lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, kraus_tol=math.nan), ValueError, "kraus_tol"),
        (lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, kraus_tol=-1.0), ValueError, "kraus_tol"),
        (
            lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, prep_tail_tol=math.inf),
            ValueError,
            "prep_tail_tol",
        ),
        (
            lambda: fock.auto_prepared_state(0.5, 0.5, 0.5, tail_tol=math.nan),
            ValueError,
            "tail_tol",
        ),
        (lambda: fock.auto_prepared_state(0.5, 0.5, 0.5, tail_tol=-1.0), ValueError, "tail_tol"),
        (
            lambda: fock.mixed_qfi_from_state(
                fock.prepared_state(0.5, 0.5, 0.5, 40, 20), 0.5, weight_tol=math.nan
            ),
            ValueError,
            "weight_tol",
        ),
        (
            lambda: fock.mixed_qfi_from_state(
                fock.prepared_state(0.5, 0.5, 0.5, 40, 20), 0.5, weight_tol=-1.0
            ),
            ValueError,
            "weight_tol",
        ),
        (
            lambda: fock.mixed_qfi_from_state(fock.prepared_state(0.5, 0.5, 0.5, 40, 20), 1.5),
            ValueError,
            r"^eta must lie in \[0, 1\], got 1\.5$",
        ),
        (
            lambda: fock.mixed_qfi_from_state(fock.prepared_state(0.5, 0.5, 0.5, 40, 20), math.nan),
            ValueError,
            r"^eta must lie in \[0, 1\], got nan$",
        ),
        # tails pass at 95x36, but rounding leaves a deficit no grid recovers
        (
            lambda: fock.auto_prepared_state(0.5, 0.5, 0.5, tail_tol=1e-14),
            NonconvergedOracleError,
            "norm deficit 3.75e-13",
        ),
        (
            lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, tail_tol=1e-14),
            NonconvergedOracleError,
            "norm deficit 3.75e-13",
        ),
    ],
    ids=[
        "alpha-huge", "auto-prep-alpha-huge", "alpha-nan", "alpha-inf", "g-nan", "r-negative",
        "tail_tol-nan", "tail_tol-negative", "kraus_tol-nan", "kraus_tol-negative",
        "prep_tail_tol-inf", "auto-prep-tail_tol-nan", "auto-prep-tail_tol-negative",
        "qfi-weight_tol-nan", "qfi-weight_tol-negative", "qfi-eta-above-1", "qfi-eta-nan",
        "auto-prep-norm-deficit", "engine-norm-deficit",
    ],
)
def test_oracle_rejects_bad_input(call, error, match):
    # promptly: a NaN tolerance once escalated for minutes, and an
    # unattainable norm deficit re-ran one prep grid forever
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        call()
    assert time.perf_counter() - start < 1.0


def test_oracle_accepts_zero_tolerance():
    # zero asks for exact truncation: it is valid input, and unattainable
    fock.SensitivityOracle(0.5, 0.5, 0.5, kraus_tol=0.0)
    with pytest.raises(NonconvergedOracleError, match="dim budget"):
        fock.auto_prepared_state(0.5, 0.5, 0.5, tail_tol=0.0, max_dim=2_000)


def test_work_grid_budget_checked_before_the_first_probe(monkeypatch):
    # the (alpha 1, g 1.5, r 1) start grid is 1734^2 cells, over the
    # budget; it once ran a 37 s probe before raising
    probes = []
    evaluate = fock.SensitivityOracle._evaluate_at_dims

    def counting(engine, *args):
        probes.append(args)
        return evaluate(engine, *args)

    monkeypatch.setattr(fock.SensitivityOracle, "_evaluate_at_dims", counting)
    eng = fock.SensitivityOracle(1.0, 1.5, 1.0)
    with pytest.raises(NonconvergedOracleError, match="1734x1734 exceeds dim budget 1400000"):
        eng.quadrature_statistics({1.0: (1.0,)}, (0.8,))
    assert probes == []


@pytest.mark.parametrize(
    "groups, phis, message",
    [
        # once a silent (0.0, 1.5568..., 0.0)
        ({1.0: (-0.2,)}, (0.8,), "transmittance t2 must lie in [0, 1], got -0.2"),
        # once a norm deficit of 0.0369, a math domain error and NaN casts
        ({-0.1: (1.0,)}, (0.8,), "transmittance t1 must lie in [0, 1], got -0.1"),
        ({1.0: (1.2,)}, (0.8,), "transmittance t2 must lie in [0, 1], got 1.2"),
        ({math.nan: (1.0,)}, (0.8,), "transmittance t1 must lie in [0, 1], got nan"),
        ({1.0: (1.0,)}, (0.8, math.nan), "phase phi must be finite, got nan"),
        ({1.0: (1.0,)}, (-math.inf,), "phase phi must be finite, got -inf"),
        # once max() and zero-size reduction errors
        ({}, (0.8,), "groups must hold at least one loss group, got {}"),
        ({1.0: (1.0,), 0.7: ()}, (0.8,), "loss group t1=0.7 must hold at least one t2, got ()"),
        ({1.0: (1.0,)}, (), "phi_values must hold at least one phase, got ()"),
    ],
    ids=["t2-negative", "t1-negative", "t2-above-1", "t1-nan", "phi-nan", "phi-inf", "no-group",
         "group-without-t2", "no-phase"],
)
def test_output_statistics_reject_bad_groups_and_phases(monkeypatch, groups, phis, message):
    probes = []
    monkeypatch.setattr(fock.SensitivityOracle, "_evaluate_at_dims", lambda *args: probes.append(args))
    eng = fock.SensitivityOracle(0.5, 0.5, 0.5)
    with pytest.raises(ValueError) as exc:
        eng.quadrature_statistics(groups, phis)
    assert str(exc.value) == message
    assert probes == []


def test_prep_bounds_the_squeezer_matrix():
    # at r = 1e300 mode a escalates while d_a * d_b stays in budget; without
    # the bound the single-mode squeezer once grew to 12906 levels and kept going
    start = time.perf_counter()
    with pytest.raises(NonconvergedOracleError, match="4958-level single-mode squeezer, over its bound"):
        fock.auto_prepared_state(0.5, 0.5, 1e300)
    assert time.perf_counter() - start < 5.0


def test_squeezer_bound_keeps_the_figure_domain_preparations():
    # the (alpha 1, g 1.5, r 1) prep needs a 1394-level squeezer (1394^2
    # is over the work-grid budget max_dim), well inside the squeezer bound
    p = InterferometerParams(g=1.5, alpha=1.0, r=1.0)
    oracle = fock.SensitivityOracle(p.alpha, p.g, p.r).fisher_pure()
    assert abs(oracle - qfi_ideal(p).fisher) <= 1e-6 * oracle


def test_squeezer_bound_skips_r_zero():
    # at r = 0 no single-mode squeezer runs, so a 1517-level coherent start
    # grid is not refused; Var n_a of a coherent state is |alpha|^2
    eng = fock.SensitivityOracle(35.0, 0, 0)
    assert eng.prep.shape[0] > 1400 and eng.prep_diag.converged
    assert eng.fisher_pure() == pytest.approx(4900.0, rel=1e-9)


class TestCutoffCheck:
    def test_vacuum_converges_at_tiny_cutoff(self):
        diag = fock.cutoff_check(fock.build_input(0.0, 2, 2), 1e-10)
        assert diag.converged

    def test_zero_tolerance_unattainable(self):
        st = fock.prepared_state(0.5, 0.5, 0.5, 40, 20)
        assert not fock.cutoff_check(st, 0.0).converged

    def test_squeezed_state_needs_large_cutoff(self):
        small = fock.prepared_state(1.0, 1.0, 1.0, 40, 20)
        assert not fock.cutoff_check(small, 1e-10).converged
        converged, diag = fock.auto_prepared_state(1.0, 1.0, 1.0, 1e-10)
        assert diag.converged
        assert converged.shape[0] > 200  # heavy super-Poissonian tail


class TestOracleAgainstAnalyticPath:
    def test_moments_match_individually(self):
        # sign-convention lock: first-order and pair moments, not aggregates
        p = InterferometerParams(g=1, alpha=1, r=0.6)
        psi, _ = fock.auto_prepared_state(1, 1, 0.6, tail_tol=1e-11)
        for key in [
            (1, 0, 0, 0),
            (0, 2, 0, 0),
            (0, 1, 0, 1),
            (1, 1, 0, 0),
            (1, 0, 1, 0),
            (2, 2, 0, 0),
        ]:
            analytic = q_moment(p, key)
            oracle = pure_moment(psi, key)
            assert abs(analytic - oracle) <= 1e-8 * max(1.0, abs(oracle)), key

    @pytest.mark.parametrize(
        "t1, t2, phi", [(1.0, 1.0, 0.5), (0.5, 0.9, 0.8)], ids=["lossless", "internal-loss"]
    )
    def test_sensitivity_cross_path(self, t1, t2, phi):
        res = crosscheck.run_cross_check(
            alphas=(1.0,), gs=(1.0,), rs=(0.5,), t_pairs=((t1, t2),), phis=(phi,)
        )
        assert [c.flag for c in res.cells if c.quantity == "delta_phi"] == [""]
        assert res.max_deviation("delta_phi") <= 1e-6

    @pytest.mark.parametrize("alpha", [0.8, 0.0], ids=["alpha0.8", "alpha0-empty-sectors"])
    def test_production_route_equals_literal_density_route(self, alpha):
        # trace cyclicity: identical matrices, reordered.  A 10x8 prep state
        # (the corner of a larger one, as the coherent input needs more than
        # 10 levels) padded into a 14x12 work grid; at alpha = 0 every odd
        # sector is empty.  Two t1 groups share the sweep, the first with two
        # t2 values; t2 = 1 takes the read-out's lossless case
        g, r, phis = 0.6, 0.4, (0.9, 0.4, 1.7)
        groups = {0.75: (0.85, 1.0), 0.4: (1.0,)}
        d_a, d_b = 14, 12
        prep = fock.prepared_state(alpha, g, r, 20, 8)[:10].copy()
        a = np.kron(dense_ladder(d_a), np.eye(d_b))
        b = np.kron(np.eye(d_a), dense_ladder(d_b))
        u2 = expm(-g * (a @ b) + g * (a.T @ b.T))  # the phase-flipped squeezer
        n_a = np.repeat(np.arange(d_a, dtype=float), d_b)
        eng = fock.SensitivityOracle(alpha, g, r)
        eng.prep = prep
        kraus = [eng._kraus_rows_for(t1) for t1 in groups]
        res, *_ = eng._evaluate_at_dims(groups, kraus, phis, d_a, d_b)
        assert len(res) == 3 * len(phis)
        for (t1, t2_values), phi in itertools.product(groups.items(), phis):
            psi = np.pad(prep, ((0, d_a - 10), (0, d_b - 8)))
            psi = np.exp(-1j * phi * np.arange(d_a))[:, None] * psi
            rho = apply_loss(psi, KrausChannel(t1, "a")).matrix
            # the exact slope: d rho / d phi = -i [n_a, rho] before the squeezer
            drho = -1j * (n_a[:, None] * rho - rho * n_a[None, :])
            rho, drho = (FockDensityOperator(d_a, d_b, u2 @ m @ u2.conj().T) for m in (rho, drho))
            for t2 in t2_values:
                mean_lit, second_lit = density_quadrature_stats(apply_loss(rho, KrausChannel(t2, "a")))
                slope_lit, _ = density_quadrature_stats(apply_loss(drho, KrausChannel(t2, "a")))
                mean_fast, second_fast, slope_fast = res[(t1, t2, phi)]
                assert mean_fast == pytest.approx(mean_lit, abs=1e-13)
                assert second_fast == pytest.approx(second_lit, abs=1e-12)
                assert slope_fast == pytest.approx(slope_lit, abs=1e-12)

    def test_sweep_skips_only_sectors_within_the_weight_budget(self, monkeypatch):
        # the reference keeps every sector of the prep grid
        groups, phis = {1.0: (1.0, 0.7), 0.7: (1.0,)}, (0.3, 0.8, 1.5)
        eng = fock.SensitivityOracle(0.5, 1.0, 0.5)
        selections = []
        select = fock._swept_sectors

        def recording(weights, budget):
            swept = select(weights, budget)
            selections.append((weights, budget, swept))
            return swept

        monkeypatch.setattr(fock, "_swept_sectors", recording)
        fast = eng.quadrature_statistics(groups, phis)
        monkeypatch.setattr(
            fock, "_swept_sectors", lambda weights, budget: np.ones(weights.shape[1], dtype=bool)
        )
        full = eng.quadrature_statistics(groups, phis)
        assert fast.keys() == full.keys()
        for key, value in full.items():
            assert fast[key] == pytest.approx(value, rel=1e-10, abs=0.0), key
        for weights, budget, swept in selections:
            assert budget == 1e-4 * eng.kraus_tol
            assert weights.shape[0] == len(groups)
            assert weights.sum(axis=1) == pytest.approx(1.0, abs=1e-9)
            assert np.all(weights[:, ~swept].sum(axis=1) <= budget)
            assert 0 < swept.sum() < 0.8 * len(swept)

    def test_sector_sweep_peak_memory_is_a_few_sector_blocks(self):
        # one sector's columns at a time plus the correlations, never the
        # (dim, columns) batch of every phase and Kraus vector.  Each column
        # streams with its phase derivative, and the offset-1 correlation
        # has its derivative too
        eng = fock.SensitivityOracle(0.5, 0.5, 0.5)
        d_a, d_b = eng.prep.shape[0] + 40, eng.prep.shape[1] + 40
        phis = (0.3, 0.8, 1.5)
        kraus = [eng._kraus_rows_for(0.7)]
        ncols = len(phis) * kraus[0].shape[0]
        block = min(d_a, d_b) * 2 * ncols * 16
        corr = 4 * d_a * ncols * 8
        batch = d_a * d_b * 2 * ncols * 16
        tracemalloc.start()
        try:
            eng._evaluate_at_dims({0.7: (1.0, 0.7)}, kraus, phis, d_a, d_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= corr + 12 * block < batch / 4


class TestOracleIsHistoryFree:
    def test_result_does_not_depend_on_earlier_engines(self):
        # the lossless group of (alpha 0.5, g 1.2, r 0) outgrows its start
        # grid; a later call on that engine starts afresh all the same
        phis = (0.8, 1.5)
        used = fock.SensitivityOracle(0.5, 1.2, 0.0)
        used.quadrature_statistics({1.0: (1.0,)}, phis)
        fock.SensitivityOracle(0.0, 0.5, 0.5).quadrature_statistics({0.7: (1.0,)}, phis)
        later = used.quadrature_statistics({0.7: (1.0, 0.7)}, phis)
        fresh = fock.SensitivityOracle(0.5, 1.2, 0.0).quadrature_statistics({0.7: (1.0, 0.7)}, phis)
        assert later == fresh

    def test_cells_do_not_depend_on_the_order_of_loss_groups(self):
        # one escalation, judged on every group's blocks, serves the engine
        cells = {}
        for t_pairs in (
            ((1.0, 1.0), (1.0, 0.7), (0.7, 1.0), (0.7, 0.7)),
            ((0.7, 1.0), (0.7, 0.7), (1.0, 1.0), (1.0, 0.7)),
        ):
            res = crosscheck.run_cross_check(
                alphas=(0.5,), gs=(1.2,), rs=(0.3,), t_pairs=t_pairs, phis=(0.8, 1.5)
            )
            cells[t_pairs] = {(c.quantity, c.t1, c.t2, c.phi): c.oracle for c in res.cells}
        first, second = cells.values()
        assert first.keys() == second.keys()
        for key, value in first.items():
            assert second[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


class TestBlasThreadScope:
    """The sweep runs on one OpenBLAS thread and restores the counts after."""

    @staticmethod
    def _counts():
        return [get() for get, _ in fock._openblas_thread_controls()]

    def test_sweep_runs_on_one_thread_and_restores_counts(self, monkeypatch):
        controls = fock._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        seen = []
        evaluate = fock.SensitivityOracle._evaluate_at_dims

        def recording(engine, *args):
            seen.append(self._counts())
            return evaluate(engine, *args)

        monkeypatch.setattr(fock.SensitivityOracle, "_evaluate_at_dims", recording)
        original = self._counts()
        try:
            # two threads before the call, so restoring is not a no-op
            for _, set_ in controls:
                set_(2)
            before = self._counts()
            eng = fock.SensitivityOracle(0.5, 0.3, 0.2)
            eng.quadrature_statistics({0.7: (1.0,)}, (0.8,))
            assert seen and all(c == [1] * len(controls) for c in seen)
            assert self._counts() == before
            # an escalation that cannot converge raises out of the scope
            seen.clear()
            # a budget of exactly the start grid: one probe, then the raise
            eng.tail_tol, eng.max_dim = 1e-300, math.prod(eng._start_dims())
            with pytest.raises(NonconvergedOracleError, match="dim budget"):
                eng.quadrature_statistics({1.0: (1.0,)}, (0.8,))
            assert seen and all(c == [1] * len(controls) for c in seen)
            assert self._counts() == before
        finally:
            for (_, set_), count in zip(controls, original):
                set_(count)


class TestQfiOracles:
    def test_pure_coherent(self):
        f = fock.SensitivityOracle(1, 0, 0).fisher_pure()
        assert f == pytest.approx(4.0, abs=1e-9)

    def test_pure_squeezed_vacuum(self):
        f = fock.SensitivityOracle(0, 0, 0.6).fisher_pure()
        assert f == pytest.approx(2.0 * math.sinh(1.2) ** 2, rel=1e-9)

    def test_pure_matches_analytic(self):
        p = InterferometerParams(g=1, alpha=1, r=1)
        f = fock.SensitivityOracle(p.alpha, p.g, p.r, prep_tail_tol=1e-12).fisher_pure()
        assert f == pytest.approx(qfi_ideal(p).fisher, rel=1e-8)

    def test_mixed_reduces_to_pure_at_full_transmission(self):
        eng = fock.SensitivityOracle(0.7, 0.8, 0.5, prep_tail_tol=1e-12)
        mixed = fock.mixed_qfi_from_state(eng.prep, 1.0)
        assert mixed == pytest.approx(eng.fisher_pure(), rel=1e-8)

    def test_mixed_lossy_coherent_closed_form(self):
        # a lossy coherent state stays coherent at sqrt(eta) alpha
        psi, _ = fock.auto_prepared_state(1.0, 0, 0)
        for eta in (0.3, 0.7):
            f = fock.mixed_qfi_from_state(psi, eta)
            assert f == pytest.approx(4.0 * eta, rel=1e-8)

    def test_mixed_vanishes_at_complete_loss(self):
        f = fock.mixed_qfi_from_state(fock.auto_prepared_state(0.5, 0.5, 0.5)[0], 0.0)
        assert abs(f) < 1e-10

    @pytest.mark.parametrize("eta", [0.5, 0.2, 0.1])
    def test_mixed_lossy_squeezed_vacuum_closed_form(self, eta):
        # a lossy squeezed vacuum is Gaussian with quadrature variances a, b
        # (vacuum 1), whose phase QFI is (a - b)^2 / (ab + 1).  At r = 2 the
        # cutoff is ~856, where unnormalised a^l |psi> rows overflow
        r = 2.0
        a = eta * math.exp(2 * r) + 1 - eta
        b = eta * math.exp(-2 * r) + 1 - eta
        f = fock.mixed_qfi_from_state(fock.auto_prepared_state(0, 0, r)[0], eta)
        assert f == pytest.approx((a - b) ** 2 / (a * b + 1), rel=1e-7)

    def test_non_finite_kraus_row_raises(self):
        eng = fock.SensitivityOracle(0.5, 0.5, 0.5)
        eng.prep[3, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonconvergedOracleError, match="overflow"):
            eng.quadrature_statistics({0.5: (1.0,)}, (0.8,))

    def test_phase_placement_irrelevant(self):
        psi, _ = fock.auto_prepared_state(0.8, 0.6, 0.4)
        phased = np.exp(-1j * 0.9 * np.arange(len(psi)))[:, None] * psi
        f1 = fock.mixed_qfi_from_state(phased, 0.6)
        assert f1 == pytest.approx(fock.mixed_qfi_from_state(psi, 0.6), rel=1e-10)

    @pytest.mark.parametrize("eta", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("d_b", [12, 1], ids=["two-mode", "fewer-rows-than-columns"])
    def test_mixed_matches_dense_spectral_sum(self, d_b, eta):
        # independent of the Gram-matrix route: the spectral sum on the full
        # density operator, with d rho / d phi = -i [N, rho] formed densely.
        # At d_b = 1 the Kraus vectors span up to the whole 24-level space
        psi = fock.prepared_state(0.5, 0.5, 0.5, 24, d_b)
        rho = apply_loss(psi, KrausChannel(eta, "a")).matrix
        n = np.repeat(np.arange(24, dtype=float), d_b)
        drho = -1j * (n[:, None] * rho - rho * n[None, :])
        p, v = np.linalg.eigh(rho)
        p = np.clip(p, 0.0, None)
        d = v.conj().T @ drho @ v
        denom = p[:, None] + p[None, :]
        mask = denom > 1e-12
        dense = 2.0 * np.sum((np.abs(d) ** 2)[mask] / denom[mask])
        assert fock.mixed_qfi_from_state(psi, eta) == pytest.approx(dense, rel=1e-9)

    def test_mixed_peak_memory_is_a_few_kraus_blocks(self):
        # the (L, dim) Kraus vectors are never formed
        psi, _ = fock.auto_prepared_state(0.5, 0.5, 0.5, tail_tol=1e-12)
        rows, _ = loss_kraus_rows(psi, 0.3, weight_tol=1e-12)
        block = rows.nbytes
        del rows
        tracemalloc.start()
        try:
            fock.mixed_qfi_from_state(psi, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * block

    def test_mixed_invariant_under_mode_b_unitary(self):
        # F depends on psi only through the mode-a reduced matrix, which a
        # unitary on mode b leaves unchanged
        psi = fock.prepared_state(0.6, 0.7, 0.4, 40, 16)
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        rotated = psi @ u.T
        for eta in (0.2, 0.6):
            f = fock.mixed_qfi_from_state(psi, eta)
            assert fock.mixed_qfi_from_state(rotated, eta) == pytest.approx(f, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_mixed_non_finite_amplitude_raises(self, bad):
        st = fock.build_input(0.5, 20, 2)
        st[3, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NonconvergedOracleError, match="overflows"):
            fock.mixed_qfi_from_state(st, 0.5)

    @pytest.mark.parametrize("widen", [1, 2], ids=["d_b", "2d_b"])
    def test_mixed_peak_memory_is_a_few_mode_a_blocks(self, widen):
        # O(d_a^2 + L^2) whatever the mode-b cutoff: nothing of size d_a d_b
        psi, _ = fock.auto_prepared_state(1.0, 1.0, 0.6)
        psi = np.pad(psi, ((0, 0), (0, (widen - 1) * psi.shape[1])))
        count = len(loss_kraus_rows(psi, 0.3, weight_tol=1e-12)[0])
        blocks = (psi.shape[0] ** 2 + count**2) * 16
        tracemalloc.start()
        try:
            fock.mixed_qfi_from_state(psi, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * blocks < psi.nbytes * count / 4


class TestMulReal:
    """The real-times-complex product on the float view against ZGEMM."""

    @pytest.mark.parametrize(
        "shape, rows",
        [((40, 7), slice(None)), ((80, 7), slice(0, None, 2)), ((40, 1), slice(None)),
         ((300, 120), slice(None))],
        ids=["contiguous", "row-strided", "single-column", "large"],
    )
    def test_matches_complex_product(self, shape, rows):
        rng = np.random.default_rng(7)
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = base[rows]
        v = rng.standard_normal((33, x.shape[0]))
        got = fock._mul_real(v, x)
        want = v.astype(complex) @ x
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        bound = 1e-13 * np.linalg.norm(v) * np.linalg.norm(x)
        assert np.max(np.abs(got - want)) <= bound
