"""Fock-space oracle: gates, channels, diagnostics, and cross-path locks."""

import io
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


def worst(diag):
    """The largest of a cutoff check's norm deficit and top-layer masses."""
    return max(diag.norm_deficit, diag.top_mass_a, diag.top_mass_b)


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
        # skips their sectors: it sweeps 21 of the 427 at alpha 0.5, and
        # gathers no other of the grid's 483 sectors.  From a cleared memo
        # each held sector is one miss, one chain factorized
        psi = fock.build_input(0.5, 427, 57)
        held = np.flatnonzero(psi[:, 0])
        assert held.tolist() == list(range(21))
        assert np.abs(psi[held, 0]).min() ** 2 >= 1e-32
        fock._chain_response.cache_clear()
        calls, sectors = [], []
        skew_exp, chain = fock._apply_skew_exp, fock._sector_chain
        monkeypatch.setattr(
            fock, "_apply_skew_exp", lambda sub, x: calls.append(len(x)) or skew_exp(sub, x)
        )
        monkeypatch.setattr(
            fock, "_sector_chain", lambda k, length: sectors.append(k) or chain(k, length)
        )
        fock.apply_two_mode_squeezer_batch(psi.reshape(-1, 1), 1.0, 427, 57)
        assert len(calls) == len(held)
        assert sectors == held.tolist()
        assert fock._chain_response.cache_info().misses == len(held)

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
        fock.apply_two_mode_squeezer_batch(full.reshape(-1, 1), g, d_a, d_b)
        full = fock.apply_single_mode_squeezer(full, r)
        cut = fock.prepared_state(alpha, g, r, d_a, d_b)
        assert np.abs(cut - full).max() <= 1e-14 * np.abs(full).max()


class TestGatesAgainstDenseExpm:
    """The sector-eigendecomposition exponentials against scipy expm."""

    # |psi>|0> columns: each held amplitude is the first level of its
    # sector's chain, and takes the memoized chain response.  xi = g e^{i
    # theta} with theta 0 or pi is the signed gain g cos(theta): pi is the
    # phase-flipped squeezer.  The two tiny gains give near-singular chains
    @pytest.mark.parametrize(
        "g,theta", [(0.7, 0.0), (0.5, math.pi), (1e-9, math.pi), (1e-200, 0.0)]
    )
    @pytest.mark.parametrize("d_a,d_b", [(9, 7), (10, 8)])
    def test_two_mode_squeezer(self, g, theta, d_a, d_b):
        a = np.kron(dense_ladder(d_a), np.eye(d_b))
        b = np.kron(np.eye(d_a), dense_ladder(d_b))
        xi = g * np.exp(1j * theta)
        u_ref = expm(np.conj(xi) * (a @ b) - xi * (a.conj().T @ b.conj().T))
        rng = np.random.default_rng(2)
        x = np.zeros((d_a * d_b, 3), dtype=complex)
        x[::d_b] = rng.normal(size=(d_a, 3)) + 1j * rng.normal(size=(d_a, 3))
        got = fock.apply_two_mode_squeezer_batch(x.copy(), g * math.cos(theta), d_a, d_b)
        assert np.abs(got - u_ref @ x).max() < 1e-12

    @pytest.mark.parametrize("g", [0.7, -0.5])
    def test_two_mode_squeezer_on_first_levels(self, g):
        # the signed gain passed as is, against the real generator
        # g (ab - a^dag b^dag)
        d_a, d_b = 10, 8
        a = np.kron(dense_ladder(d_a), np.eye(d_b))
        b = np.kron(np.eye(d_a), dense_ladder(d_b))
        u_ref = expm(g * (a @ b) - g * (a.T @ b.T))
        rng = np.random.default_rng(2)
        x = np.zeros((d_a * d_b, 3), dtype=complex)
        x[::d_b] = rng.normal(size=(d_a, 3)) + 1j * rng.normal(size=(d_a, 3))
        got = fock.apply_two_mode_squeezer_batch(x.copy(), g, d_a, d_b)
        assert np.abs(got - u_ref @ x).max() < 1e-12

    @pytest.mark.parametrize("g", [0.7, 0.0])
    @pytest.mark.parametrize("n_a, n_b", [(0, 1), (3, 2), (9, 7)])
    def test_two_mode_squeezer_rejects_amplitude_above_n_b_0(self, g, n_a, n_b):
        # the first squeezer acts on |alpha>|0> alone
        x = np.zeros((10 * 8, 2), dtype=complex)
        x[::8] = 1.0
        x[n_a * 8 + n_b, 1] = 1e-300
        with pytest.raises(ValueError, match="amplitude only at n_b = 0"):
            fock.apply_two_mode_squeezer_batch(x, g, 10, 8)

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
        out = fock.apply_two_mode_squeezer_batch(st.reshape(-1, 1).copy(), 0.0, 16, 4)
        assert np.array_equal(out.reshape(16, 4), st)

    def test_two_mode_vacuum_photon_number(self):
        st = fock.prepared_state(0.0, 1.0, 0.0, 30, 30)
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
        # the read-out's phase factors on |1>|0> through an identity gate
        # pair: <X> = 2 cos(phi), <X^2> = 4 cos(phi)^2 + 1, d<X>/dphi = -2 sin(phi)
        eng = fock.SensitivityOracle(1.0, 0.0, 0.0)
        phis = (0.0, 2 * math.pi, 0.7, 1.2345e100)
        res = eng._evaluate_at_dims({1.0: (1.0,)}, (1.0, 0.0), phis, *eng.prep.shape)
        for phi in phis:
            turn = complex(np.exp(-1j * phi))
            assert res[(1.0, 1.0, phi)] == pytest.approx(
                (2 * turn.real, 4 * turn.real**2 + 1, 2 * turn.imag), abs=1e-9
            )
        # a full turn reads as no turn
        assert res[(1.0, 1.0, 2 * math.pi)] == pytest.approx(res[(1.0, 1.0, 0.0)], abs=1e-12)


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


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: fock.SensitivityOracle(1e200, 0.5, 0.5), NonconvergedOracleError, "start grid"),
        (lambda: fock.auto_prepared_state(1e200, 0.5, 0.5), NonconvergedOracleError, "start grid"),
        (lambda: fock.SensitivityOracle(math.nan, 0.5, 0.5), ValueError, "alpha must be finite"),
        (lambda: fock.SensitivityOracle(math.inf, 0.5, 0.5), ValueError, "alpha must be finite"),
        (lambda: fock.SensitivityOracle(0.5, math.nan, 0.5), ValueError, "g must be finite"),
        (lambda: fock.SensitivityOracle(0.5, 0.5, -1.0), ValueError, "squeezing r"),
        (
            lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, prep_tail_tol=math.nan),
            ValueError,
            "prep_tail_tol",
        ),
        (
            lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, prep_tail_tol=-1.0),
            ValueError,
            "prep_tail_tol",
        ),
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
            lambda: fock.mixed_qfi_from_state(fock.prepared_state(0.5, 0.5, 0.5, 40, 20), 1.5),
            ValueError,
            r"^eta must lie in \[0, 1\], got 1\.5$",
        ),
        (
            lambda: fock.mixed_qfi_from_state(fock.prepared_state(0.5, 0.5, 0.5, 40, 20), math.nan),
            ValueError,
            r"^eta must lie in \[0, 1\], got nan$",
        ),
        # tails pass at 107x39, but rounding leaves a deficit no grid recovers
        (
            lambda: fock.auto_prepared_state(0.5, 0.5, 0.5, tail_tol=1e-16),
            NonconvergedOracleError,
            r"norm deficit \S+ exceeds its budget 1e-16 at grid 107x39",
        ),
        (
            lambda: fock.SensitivityOracle(0.5, 0.5, 0.5, prep_tail_tol=1e-16),
            NonconvergedOracleError,
            r"norm deficit \S+ exceeds its budget 1e-16 at grid 107x39",
        ),
    ],
    ids=[
        "alpha-huge", "auto-prep-alpha-huge", "alpha-nan", "alpha-inf", "g-nan", "r-negative",
        "prep_tail_tol-nan", "prep_tail_tol-negative", "prep_tail_tol-inf", "auto-prep-tail_tol-nan", "auto-prep-tail_tol-negative",
        "qfi-eta-above-1", "qfi-eta-nan",
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
    with pytest.raises(NonconvergedOracleError, match="dim budget"):
        fock.auto_prepared_state(0.5, 0.5, 0.5, tail_tol=0.0, max_dim=2_000)


@pytest.mark.parametrize(
    "alpha, g, r, kwargs, probes, ends",
    [
        (0.5, 1.0, 1.0, {}, [(17, 6), (60, 16), (172, 57), (427, 57)], None),
        (1.0, 1.0, 0.6, {"tail_tol": 1e-12}, [(21, 6), (38, 16), (114, 57), (293, 82)], None),
        # no fit reaches a zero tail: each failing mode grows by 1.45 plus 8
        (
            0.5, 0.5, 0.5, {"tail_tol": 0.0, "max_dim": 2_000}, [(17, 6), (32, 16), (54, 31)],
            "grid 86x52 exceeds dim budget 2000$",
        ),
        (35.0, 0.0, 0.0, {}, [(1517, 6)], None),
    ],
    ids=["default-tail", "tail-1e-12", "tail-0-fallback", "alpha-35"],
)
def test_escalation_probes_the_pinned_grids(monkeypatch, alpha, g, r, kwargs, probes, ends):
    # every probe's (d_a, d_b), as the tail fits steer them
    seen, prepare = [], fock.prepared_state
    monkeypatch.setattr(
        fock, "prepared_state", lambda *args: seen.append(args[3:]) or prepare(*args)
    )
    if ends is None:
        fock.auto_prepared_state(alpha, g, r, **kwargs)
    else:
        with pytest.raises(NonconvergedOracleError, match=ends):
            fock.auto_prepared_state(alpha, g, r, **kwargs)
    assert seen == probes


def test_prep_budget_checked_before_the_first_probe(monkeypatch):
    # the prep's 21x6 start grid at (alpha 1, g 1.5, r 1) is over a budget
    # of 100 cells: refused before any state is prepared
    probes = []
    monkeypatch.setattr(fock, "prepared_state", lambda *args: probes.append(args))
    with pytest.raises(NonconvergedOracleError, match="start grid 21x6 exceeds dim budget 100$"):
        fock.SensitivityOracle(1.0, 1.5, 1.0, max_dim=100)
    assert probes == []


@pytest.mark.parametrize("alpha, g, r", [(2.0, 1.5, 1.0), (1.0, 1.5, 1.0), (1.5, 1.2, 1.5)])
def test_figure_domain_engines_pass(alpha, g, r):
    # the figure presets reach g 1.5, alpha 2 and t 0.2; the paper's largest
    # preparation is (alpha 2, g 1.5, r 1) at 1985x251
    res = crosscheck.run_cross_check(
        alphas=(alpha,), gs=(g,), rs=(r,),
        t_pairs=((1.0, 1.0), (0.2, 1.0), (1.0, 0.2), (0.5, 0.5)), phis=(0.05, 1.5, 3.0),
    )
    assert not any(c.flag for c in res.cells)
    assert res.passed, res.summary_lines()


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
    # the (alpha 1, g 1.5, r 1) prep needs a 1394-level squeezer, well
    # inside the squeezer bound
    p = InterferometerParams(g=1.5, alpha=1.0, r=1.0)
    oracle = fock.SensitivityOracle(p.alpha, p.g, p.r).fisher_pure()
    assert abs(oracle - qfi_ideal(p).fisher) <= 1e-6 * oracle


def test_squeezer_bound_skips_r_zero():
    # at r = 0 no single-mode squeezer runs, so a 1517-level coherent start
    # grid is not refused; Var n_a of a coherent state is |alpha|^2
    eng = fock.SensitivityOracle(35.0, 0, 0)
    assert eng.prep.shape[0] > 1400
    assert worst(fock.cutoff_check(eng.prep)) <= fock.DEFAULT_TAIL_TOL
    assert eng.fisher_pure() == pytest.approx(4900.0, rel=1e-9)


class TestCutoffCheck:
    def test_vacuum_converges_at_tiny_cutoff(self):
        diag = fock.cutoff_check(fock.build_input(0.0, 2, 2))
        assert diag == fock.CutoffDiagnostics(0.0, 0.0, 0.0)

    def test_zero_tolerance_unattainable(self):
        st = fock.prepared_state(0.5, 0.5, 0.5, 40, 20)
        assert worst(fock.cutoff_check(st)) > 0.0

    def test_squeezed_state_needs_large_cutoff(self):
        small = fock.prepared_state(1.0, 1.0, 1.0, 40, 20)
        assert worst(fock.cutoff_check(small)) > 1e-10
        converged, diag = fock.auto_prepared_state(1.0, 1.0, 1.0, 1e-10)
        assert worst(diag) <= 1e-10
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

    @pytest.mark.parametrize(
        "alpha", [0.8, 0.0, 0.6 + 0.5j], ids=["alpha0.8", "alpha0-empty-sectors", "complex-alpha"]
    )
    def test_production_route_equals_literal_density_route(self, alpha):
        # the read-out against Schroedinger's picture: the 10x8 prep (the
        # corner of a larger one, as the coherent input needs more than 10
        # levels) padded into a 26x26 grid, where the literal phase-flipped
        # squeezer at g 0.25 moves the moments below 1e-14; at alpha = 0
        # every odd sector is empty, and a complex alpha gives complex
        # moments.  Two t1 groups share the read-out, the first with two t2
        # values, every transmittance under 1
        g, r, phis = 0.25, 0.4, (0.9, 1.7)
        groups = {0.75: (0.85, 0.5), 0.4: (0.9,)}
        d = 26
        prep = fock.prepared_state(alpha, g, r, 20, 8)[:10].copy()
        a = np.kron(dense_ladder(d), np.eye(d))
        b = np.kron(np.eye(d), dense_ladder(d))
        u2 = expm(-g * (a @ b) + g * (a.T @ b.T))  # the phase-flipped squeezer
        n_a = np.repeat(np.arange(d, dtype=float), d)
        eng = fock.SensitivityOracle(alpha, g, r)
        eng.prep = prep
        res = eng.quadrature_statistics(groups, phis)
        assert len(res) == 3 * len(phis)
        for (t1, t2_values), phi in itertools.product(groups.items(), phis):
            psi = np.pad(prep, ((0, d - 10), (0, d - 8)))
            psi = np.exp(-1j * phi * np.arange(d))[:, None] * psi
            rho = apply_loss(psi, KrausChannel(t1, "a")).matrix
            # the exact slope: d rho / d phi = -i [n_a, rho] before the squeezer
            drho = -1j * (n_a[:, None] * rho - rho * n_a[None, :])
            rho, drho = (FockDensityOperator(d, d, u2 @ m @ u2.conj().T) for m in (rho, drho))
            for t2 in t2_values:
                mean_lit, second_lit = density_quadrature_stats(apply_loss(rho, KrausChannel(t2, "a")))
                slope_lit, _ = density_quadrature_stats(apply_loss(drho, KrausChannel(t2, "a")))
                mean, second, slope = res[(t1, t2, phi)]
                assert mean == pytest.approx(mean_lit, abs=1e-12)
                assert second == pytest.approx(second_lit, abs=1e-12)
                assert slope == pytest.approx(slope_lit, abs=1e-12)

    @pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
    def test_gate_pair_is_the_bogoliubov_pair(self, g):
        # read off the literal gate, never typed: U2' a U2 = cosh(g) a + sinh(g) b'
        c, s = fock._gate_pair(g)
        assert abs(c * c - s * s - 1.0) <= 1e-13
        assert abs(c - math.cosh(g)) <= 1e-14 * math.cosh(g)
        assert s > 0.0

    def test_gate_pair_over_the_budget_raises(self):
        # the chains stop at the 2048 levels the prep's single-mode squeezer
        # also eigendecomposes (MAX_SQUEEZER_DIM // 2), short of g 3.0's need
        with pytest.raises(
            NonconvergedOracleError,
            match=r"^second squeezer: 2048-level chains leave c\^2 - s\^2 - 1 = 1.24e-05, "
            r"and longer ones exceed the 2048-level chain bound$",
        ):
            fock._gate_pair(3.0)

    def test_second_squeezer_reaches_past_the_prep_budget(self):
        # at g 2.5 the prep fits 968x977 cells, but the pair needs chains
        # longer than sqrt(DEFAULT_MAX_DIM) = 1183 levels: 1183 leave
        # c^2 - s^2 - 1 = 6.7e-11
        phi = 0.8
        eng = fock.SensitivityOracle(0.0, 2.5, 0.0)
        x, x2, _ = eng.quadrature_statistics({1.0: (1.0,)}, (phi,))[(1.0, 1.0, phi)]
        analytic = quadrature_stats(InterferometerParams(g=2.5, alpha=0.0, r=0.0, phi=phi))
        assert x2 - x * x == pytest.approx(analytic.variance, rel=1e-6)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_lossy_bands_scale_the_ladder_operators(self, t):
        # the adjoint loss channel maps n_a, a and a^2 to t n_a, sqrt(t) a and
        # t a^2, on every row of the truncated bands
        n = np.arange(12.0)
        lossy_n, lossy_a, lossy_aa = fock._lossy_bands(t, 12)
        assert np.abs(lossy_n - t * n).max() <= 1e-14 * n.max()
        assert np.abs(lossy_a - math.sqrt(t) * np.sqrt(n[1:])).max() <= 1e-14 * n.max()
        assert np.abs(lossy_aa - t * np.sqrt(n[1:-1] * n[2:])).max() <= 1e-14 * n.max()
        assert fock._loss_factors(t) == pytest.approx((t, math.sqrt(t), t), abs=1e-15)

    def test_read_out_peak_memory_is_a_few_prep_blocks(self):
        # the read-out holds a few prep-sized arrays at a time, never a
        # density operator or a grid the second squeezer has widened
        eng = fock.SensitivityOracle(1.0, 1.0, 1.0)
        phis = (0.3, 0.8, 1.5)
        tracemalloc.start()
        try:
            eng.quadrature_statistics({1.0: (1.0, 0.7), 0.7: (1.0, 0.7)}, phis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * eng.prep.nbytes


class TestOracleIsHistoryFree:
    def test_result_does_not_depend_on_earlier_engines(self):
        # a later call on an engine reads the same prep as a fresh engine's
        phis = (0.8, 1.5)
        used = fock.SensitivityOracle(0.5, 1.2, 0.0)
        used.quadrature_statistics({1.0: (1.0,)}, phis)
        fock.SensitivityOracle(0.0, 0.5, 0.5).quadrature_statistics({0.7: (1.0,)}, phis)
        later = used.quadrature_statistics({0.7: (1.0, 0.7)}, phis)
        fresh = fock.SensitivityOracle(0.5, 1.2, 0.0).quadrature_statistics({0.7: (1.0, 0.7)}, phis)
        assert later == fresh

    def test_cells_do_not_depend_on_the_order_of_loss_groups(self):
        # one read-out of the prep serves all of the engine's groups
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


class TestChainResponseMemo:
    """Engines share only the memoized chain responses, pure functions of their key."""

    @pytest.mark.parametrize(
        "g, k, length", [(1.0, 0, 57), (1.0, 20, 57), (-0.5, -1, 31), (0.3, 4, 1), (-1.5, 1, 255)]
    )
    def test_response_is_the_first_level_exponential(self, g, k, length):
        fock._chain_response.cache_clear()
        _, coupling = fock._sector_chain(k, length)
        start = np.zeros((length, 1), dtype=complex)
        start[0] = 1.0
        with fock._one_blas_thread():  # as the memo computes its entries
            direct = fock._apply_skew_exp(-g * coupling, start)[:, 0]
        for _ in range(2):  # a miss, then a hit
            response = fock._chain_response(g, k, length)
            assert np.array_equal(response, direct)
            assert not response.flags.writeable
        assert fock._chain_response.cache_info()[:2] == (1, 1)  # hits, misses

    @pytest.mark.parametrize("g", [0.5, 1.0, 1.5])
    def test_gate_pair_equals_the_direct_chains(self, g):
        # the chains of exp(-g ab + g a'b') through |0,0>, |1,0> and |0,1>,
        # factorized here without the memo on one BLAS thread, doubled from
        # 16 levels as the oracle doubles them
        length = 16
        while True:
            chains = []
            for k in (0, 1, -1):
                na, coupling = fock._sector_chain(k, length - abs(k))
                start = np.zeros((len(na), 1), dtype=complex)
                start[0] = 1.0
                with fock._one_blas_thread():
                    chains.append((na, fock._apply_skew_exp(g * coupling, start)[:, 0]))
            (na_00, u_00), (na_10, u_10), (_, u_01) = chains
            c = np.vdot(u_00[:-1], np.sqrt(na_10) * u_10).real
            s = np.vdot(u_01, np.sqrt(na_00[1:]) * u_00[1:]).real
            if abs(c * c - s * s - 1.0) <= 1e-13:
                break
            length *= 2
        fock._chain_response.cache_clear()
        assert fock._gate_pair(g) == (float(c), float(s))
        assert fock._gate_pair(g) == (float(c), float(s))

    def test_cells_do_not_depend_on_the_memo(self):
        # cold, warm, and with the engines' order reversed: the same cells
        def cells(alphas):
            res = crosscheck.run_cross_check(
                alphas=alphas, gs=(1.0,), rs=(1.0,), t_pairs=((1.0, 1.0), (0.7, 0.7)),
                phis=(0.3, 0.8),
            )
            return {(c.quantity, c.alpha, c.t1, c.t2, c.phi): c.oracle for c in res.cells}

        fock._chain_response.cache_clear()
        cold = cells((0.5, 1.0))
        assert fock._chain_response.cache_info().hits > 0
        assert cells((0.5, 1.0)) == cold
        assert cells((1.0, 0.5)) == cold


class TestBlasThreadScope:
    """The oracle's entry points run on one OpenBLAS thread and restore the counts."""

    @staticmethod
    def _counts():
        return [get() for get, _ in fock._openblas_thread_controls()]

    def _record(self, monkeypatch, owner, name, seen):
        inner = getattr(owner, name)

        def recording(*args, **kwargs):
            seen.append(self._counts())
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)

    @pytest.mark.parametrize("entry", ["prep", "read-out", "mixed"])
    def test_entry_runs_on_one_thread_and_restores_counts(self, monkeypatch, entry):
        controls = fock._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        # found once per process
        assert fock._openblas_thread_controls() is controls
        seen = []
        if entry == "prep":
            self._record(monkeypatch, fock, "prepared_state", seen)

            def run():
                fock.auto_prepared_state(0.5, 0.3, 0.2)

            def fail():
                # a budget of exactly the 17 x 6 start grid: one probe, then the raise
                with pytest.raises(NonconvergedOracleError, match="dim budget"):
                    fock.auto_prepared_state(0.5, 0.3, 0.2, tail_tol=1e-300, max_dim=17 * 6)
        elif entry == "read-out":
            eng = fock.SensitivityOracle(0.5, 0.3, 0.2)
            self._record(monkeypatch, fock.SensitivityOracle, "_evaluate_at_dims", seen)

            def run():
                eng.quadrature_statistics({0.7: (1.0,)}, (0.8,))

            def fail():
                eng.prep[3, 0] = np.inf
                with np.errstate(invalid="ignore"), pytest.raises(
                    NonconvergedOracleError, match="overflows"
                ):
                    eng.quadrature_statistics({0.7: (1.0,)}, (0.8,))
        else:
            psi = fock.build_input(0.5, 20, 2)
            bad = psi.copy()
            bad[3, 1] = np.inf
            self._record(monkeypatch, fock, "_mode_a_sigma", seen)

            def run():
                fock.mixed_qfi_from_state(psi, 0.5)

            def fail():
                with np.errstate(invalid="ignore"), pytest.raises(
                    NonconvergedOracleError, match="overflows"
                ):
                    fock.mixed_qfi_from_state(bad, 0.5)

        original = self._counts()
        try:
            # two threads before each call, so restoring is not a no-op
            for _, set_ in controls:
                set_(2)
            for call in (run, fail):
                seen.clear()
                call()
                assert seen and all(c == [1] * len(controls) for c in seen)
                assert self._counts() == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, original):
                set_(count)

    @pytest.mark.parametrize(
        "maps",
        [None, "7f00-7f01 r-xp 00000000 00:00 0 /nonexistent/libopenblas.so.0\n"],
        ids=["maps-unreadable", "library-not-loadable"],
    )
    def test_without_controls_the_scope_does_nothing(self, monkeypatch, maps):
        # no OpenBLAS found, or none loadable: no controls, and the scope
        # leaves the counts as they are
        real = fock._openblas_thread_controls()
        original = self._counts()

        def fake_open(*args, **kwargs):
            if maps is None:
                raise PermissionError("maps unreadable")
            return io.StringIO(maps)

        monkeypatch.setattr(fock, "open", fake_open, raising=False)
        fock._openblas_thread_controls.cache_clear()
        try:
            assert fock._openblas_thread_controls() == ()
            for _, set_ in real:
                set_(2)
            with fock._one_blas_thread():
                assert [get() for get, _ in real] == [2] * len(real)
            assert [get() for get, _ in real] == [2] * len(real)
        finally:
            fock._openblas_thread_controls.cache_clear()
            for (_, set_), count in zip(real, original):
                set_(count)


class TestGramRowCut:
    """The Gram sum skips rows under 1e-32 of the weight; F stays put."""

    @staticmethod
    def _all_row_grams(sigma, u, total):
        # G_j = sum over every row n of n^j (u(n) u(n)^T) * sigma[n + l, n + l'],
        # j = 0, 1, 2, on the Hermitian completion of sigma's upper triangle;
        # row n has orders l < d - n only
        d, count = u.shape
        full = np.triu(sigma) + np.triu(sigma, 1).conj().T
        gram = np.zeros((3, count, count), dtype=complex)
        for n in range(d):
            m = min(count, d - n)
            term = np.outer(u[n, :m], u[n, :m]) * full[n : n + m, n : n + m]
            for j in range(3):
                gram[j, :m, :m] += float(n) ** j * term
        return gram

    @pytest.mark.parametrize(
        "alpha, g, r, tail, eta",
        [(1.0, 1.0, 0.6, 1e-12, 0.1), (1.0, 1.0, 0.6, 1e-12, 0.5),
         (1.0, 1.0, 0.6, 1e-12, 0.9), (0.0, 0.0, 2.0, fock.DEFAULT_TAIL_TOL, 0.1)],
    )
    def test_cut_matches_the_gram_over_all_rows(self, monkeypatch, alpha, g, r, tail, eta):
        psi, _ = fock.auto_prepared_state(alpha, g, r, tail_tol=tail)
        cut = fock.mixed_qfi_from_state(psi, eta)
        monkeypatch.setattr(fock, "_loss_grams", self._all_row_grams)
        assert cut == pytest.approx(fock.mixed_qfi_from_state(psi, eta), rel=1e-11, abs=0.0)


class TestMixedQfiRankReduction:
    """The Gram's pivoted-Cholesky reduction against a full eigensolve of G_0."""

    @staticmethod
    def _full_eigh_qfi(psi, eta):
        # the Braunstein-Caves sum over every eigenvector of the L x L G_0
        # above L eps lam_max
        sigma = fock._mode_a_sigma(psi)
        total = float(np.vdot(psi, psi).real)
        u = fock._loss_family(sigma.diagonal().real, eta, total)
        gram = fock._loss_grams(sigma, u, total)
        lam, vec = np.linalg.eigh(gram[0])
        keep = lam > u.shape[1] * np.finfo(float).eps * lam[-1]
        lam, vec = lam[keep], vec[:, keep]
        c = vec.conj().T @ gram[1] @ vec
        second = np.sum(vec.conj() * (gram[2] @ vec)).real
        return float(4.0 * second - 8.0 * np.sum(np.abs(c) ** 2 / (lam[:, None] + lam[None, :])))

    @pytest.mark.parametrize(
        "alpha, g, r, tail, eta",
        [(1.0, 1.0, 0.6, 1e-12, 0.1), (1.0, 1.0, 0.6, 1e-12, 0.5),
         (1.0, 1.0, 0.6, 1e-12, 0.9), (0.0, 0.0, 2.0, fock.DEFAULT_TAIL_TOL, 0.1),
         (1.0, 1.0, 0.6, 1e-12, 1.0)],
    )
    def test_reduced_matches_the_full_eigensolve(self, alpha, g, r, tail, eta):
        psi, _ = fock.auto_prepared_state(alpha, g, r, tail_tol=tail)
        full = self._full_eigh_qfi(psi, eta)
        assert full > 0.0
        assert fock.mixed_qfi_from_state(psi, eta) == pytest.approx(full, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "params, eta",
        [((1.0, 1.0, 0.6), 0.0), ((0.0, 0.0, 0.0), 0.5), (None, 0.5)],
        ids=["complete-loss", "vacuum", "zero-gram"],
    )
    def test_no_information_reads_exactly_zero(self, params, eta):
        # no photons left, none there, or no state (a Gram of rank 0)
        if params is None:
            psi = np.zeros((12, 4), dtype=complex)
        else:
            psi, _ = fock.auto_prepared_state(*params)
        assert fock.mixed_qfi_from_state(psi, eta) == 0.0 == self._full_eigh_qfi(psi, eta)


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
