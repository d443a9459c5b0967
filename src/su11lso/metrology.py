"""Headline metrology quantities of the squeezed interferometer.

Phase sensitivity by error propagation on the output quadrature, total
internal photon number with its shot-noise (1/sqrt(N)) and Heisenberg
(1/N) benchmarks, the pure-state quantum Fisher information
F = 4 Var(n_a), read cancellation-free from the generating exponent, with
the Cramer-Rao bound 1/sqrt(F), and the optimized lossy Fisher information
F_L = 4 F eta <n_a> / ((1 - eta) F + 4 eta <n_a>).

N, the benchmarks, and F always refer to the ideal internal state before
the second squeezer; loss and phase never enter them.  The quadrature mean
and variance are trigonometric polynomials of degree 1 and 2 in phi, so
the phase of best sensitivity is exact: every stationary point of
Var X / (d<X>/dphi)^2 is the angle of a root of one quartic in e^{i phi},
which also covers the several stationary points the sensitivity curve
develops at strong squeezing.

Every function takes one ``InterferometerParams`` or a sequence of them.
One point is evaluated on Python numbers: it returns floats and raises
``DivergentSensitivityError`` or ``DegenerateConfigurationError`` where the
quantity is undefined.  A sequence of n points is evaluated in one array
pass, each point to its single-point bits.  It returns the same report with
(n,) array fields, and ``sql_hl`` returns (sql, hl, status); in place of
those errors ``status`` reads "divergent" or "degenerate" (else "ok") and
the undefined fields read nan.  A sequence's ValueError (overflow) is one
that some failing point raises alone; sweeps find the first such point.
A sequence's arithmetic runs with numpy's floating-point warnings off: its
overflow shows as that ValueError or a non-finite value, never as a
warning (Python numbers warn of nothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, DivergentSensitivityError
from .moments import InterferometerParams, quadrature_stats, trig_coefficients
from .moments import _check, _check_finite, _exponent_of, _homodyne, _re_product, _series

SLOPE_FLOOR = 1e-12

# the phase interval that optimal_phase searches
PHASE_BRACKET = (1e-3, math.pi - 1e-3)

# a homodyne variance is positive; where its harmonics cancel to <= 0, the
# sensitivity would read an exact 0
_CANCELLED = "homodyne variance cancels to <= 0"


@dataclass(frozen=True)
class SensitivityReport:
    delta_phi: float
    mean: float
    variance: float
    dmean_dphi: float
    status: str = "ok"


@dataclass(frozen=True)
class QfiReport:
    n_total: float
    sql: float
    hl: float
    fisher: float
    qcrb: float
    status: str = "ok"


@dataclass(frozen=True)
class LossyQfiReport:
    eta: float
    fisher_lossy: float
    qcrb_lossy: float
    status: str = "ok"


@dataclass(frozen=True)
class OptimalPhaseResult:
    phi_opt: float
    delta_phi_min: float
    status: str = "ok"


def _status(flagged: np.ndarray, word: str) -> np.ndarray:
    """Per-point status of a sequence: ``word`` where flagged, else "ok"."""
    return np.where(flagged, word, "ok")


def phase_sensitivity(params) -> SensitivityReport:
    """Error-propagation sensitivity sqrt(Var X) / |d<X>/dphi| at the output.

    A sequence of points gives (n,) arrays with status "divergent" (and
    delta_phi nan) where the slope is below SLOPE_FLOOR; one point raises
    ``DivergentSensitivityError`` there.  A variance or slope that
    overflows raises ValueError, and so does a variance that cancels to
    <= 0 below rounding (strong squeezing near phi = pi/2).
    """
    stats = quadrature_stats(params)
    _check_finite("homodyne statistics overflow", (stats.variance, stats.dmean_dphi), params)
    _check(_CANCELLED, stats.variance > 0.0, params)
    slope = abs(stats.dmean_dphi)
    if isinstance(params, InterferometerParams):
        if slope < SLOPE_FLOOR:
            raise DivergentSensitivityError(
                f"|d<X>/dphi| = {slope:.2e} below {SLOPE_FLOOR}: "
                "no phase information at this operating point"
            )
        delta = math.sqrt(max(stats.variance, 0.0)) / slope
        return SensitivityReport(delta, stats.mean, stats.variance, stats.dmean_dphi)
    divergent = slope < SLOPE_FLOOR
    with np.errstate(all="ignore"):  # x / 0 at a vanishing slope
        delta = np.where(divergent, np.nan, np.sqrt(np.maximum(stats.variance, 0.0)) / slope)
    return SensitivityReport(
        delta, stats.mean, stats.variance, stats.dmean_dphi, _status(divergent, "divergent")
    )


def _mode_a_number(e):
    """<n_a> = Re Q1100 = Re(l0 l1) + P01, in the pairing order of ``series_exp``."""
    return _re_product(e.l0, e.l1) + e.p01


def _photon_number(e):
    """N = <n_a> + <n_b>, each in the pairing order of ``series_exp``."""
    return (_re_product(e.l0, e.l1) + e.p01) + (_re_product(e.l2, e.l3) + e.p23)


def total_photon_number(params):
    """Mean photon number of the internal state, N = Q1100 + Q0011.

    A sequence of points gives an (n,) array.
    """
    return _exponent_of(params, _photon_number, "photon number N overflows")


def sql_hl(params):
    """(1/sqrt(N), 1/N) benchmarks from the ideal internal photon number.

    A sequence of points gives (sql, hl, status) with (n,) arrays, status
    "degenerate" (and nan benchmarks) where one point raises
    ``DegenerateConfigurationError``.
    """
    n = total_photon_number(params)
    if isinstance(params, InterferometerParams):
        if n <= 0.0 or not math.isfinite(1.0 / n):
            raise DegenerateConfigurationError(f"benchmarks undefined at N = {n:g}")
        return 1.0 / math.sqrt(n), 1.0 / n
    with np.errstate(all="ignore"):  # 1/N overflows at N = 0 and at a subnormal N
        hl = 1.0 / n
    degenerate = ~((n > 0.0) & np.isfinite(hl))
    n = np.where(degenerate, np.nan, n)
    return 1.0 / np.sqrt(n), np.where(degenerate, np.nan, hl), _status(degenerate, "degenerate")


def qfi_ideal(params) -> QfiReport:
    """Pure-state Fisher information and the associated bounds.

    F = 4 Var(n_a) of the internal state, in connected form from the
    exponent's pair part P = 2 quadratic and linear part l:
    Var n_a = P01 (P01 + 1) + P00 P11 + P00 l1^2 + P11 l0^2 + (2 P01 + 1) l0 l1,
    which is Q2200 + Q1100 - Q1100^2 with the O(|alpha|^4) terms cancelled
    exactly.  The Cramer-Rao bound uses a single measurement (v = 1).

    A sequence of points gives (n,) arrays with status "degenerate" (and nan
    in every field but N) where one point raises
    ``DegenerateConfigurationError``.
    """
    fisher = _exponent_of(params, _ideal_fisher, "Fisher information overflows")
    if isinstance(params, InterferometerParams):
        if fisher <= 0.0:
            raise DegenerateConfigurationError(
                f"Fisher information {fisher:.3e} <= 0: vacuum-degenerate configuration"
            )
        n = total_photon_number(params)
        sql, hl = sql_hl(params)
        return QfiReport(n, sql, hl, fisher, 1.0 / math.sqrt(fisher))
    # F <= 0 only in the vacuum, whose N = 0 cannot overflow, so N is read at
    # every point
    n = total_photon_number(params)
    sql, hl, status = sql_hl(params)
    degenerate = (fisher <= 0.0) | (status != "ok")
    sql, hl, fisher = (np.where(degenerate, np.nan, v) for v in (sql, hl, fisher))
    return QfiReport(n, sql, hl, fisher, 1.0 / np.sqrt(fisher), _status(degenerate, "degenerate"))


def _ideal_fisher(e):
    """F = 4 Var(n_a) from the exponent entries (see ``qfi_ideal``)."""
    return 4.0 * (
        e.p01 * (e.p01 + 1.0) + e.p00 * e.p11 + _re_product(e.p00 * e.l1, e.l1)
        + _re_product(e.p11 * e.l0, e.l0) + _re_product((2.0 * e.p01 + 1.0) * e.l0, e.l1)
    )


def _lossy_fisher(fisher, eta, n_a):
    return 4.0 * fisher * eta * n_a / ((1.0 - eta) * fisher + 4.0 * eta * n_a)


def qfi_lossy(params, eta) -> LossyQfiReport:
    """Optimized lossy Fisher information F_L and its Cramer-Rao bound.

    F_L = 4 F eta <n_a> / ((1 - eta) F + 4 eta <n_a>); the eta = 0 and
    eta = 1 limits are returned exactly, and a vanishing F_L reports an
    unbounded phase uncertainty.

    A sequence of points takes one eta or one per point and gives (n,)
    arrays with status "degenerate" (and nan F_L) where one point raises
    ``DegenerateConfigurationError``.
    """
    single = isinstance(params, InterferometerParams)
    if single:
        eta = float(eta)  # a numpy scalar would warn where F_L overflows
        if not 0.0 <= eta <= 1.0:  # false for NaN too
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
    else:
        eta = np.broadcast_to(np.asarray(eta, dtype=float), (len(params),))
        outside = ~((0.0 <= eta) & (eta <= 1.0))
        if outside.any():
            raise ValueError(f"eta must lie in [0, 1], got {eta[outside][0]}")
    n_a = _exponent_of(params, _mode_a_number)
    report = qfi_ideal(params)
    fisher = report.fisher
    if single:
        if eta == 1.0:
            fl = fisher
        elif eta == 0.0:
            fl = 0.0
        else:
            fl = _lossy_fisher(fisher, eta, n_a)
            _check_finite("lossy Fisher information overflows", (fl,), params)
        qcrb = math.inf if fl == 0.0 else 1.0 / math.sqrt(fl)
        return LossyQfiReport(eta, fl, qcrb)
    ok = report.status == "ok"
    between = ok & (eta != 1.0) & (eta != 0.0)
    with np.errstate(all="ignore"):  # overflow is checked below; F_L = 0 bounds nothing
        raw = _lossy_fisher(fisher, eta, n_a)
        # fisher is nan where the status is not ok
        fl = np.where(between, raw, np.where(ok & (eta == 0.0), 0.0, fisher))
        qcrb = 1.0 / np.sqrt(fl)
    _check_finite("lossy Fisher information overflows", (np.where(between, raw, 0.0),), params)
    return LossyQfiReport(eta, fl, qcrb, report.status)


def sensitivity_curve(params, phis) -> np.ndarray:
    """Delta-phi over a phase grid; divergent points come back as +inf.

    ``params`` is one point, evaluated at every phase of ``phis``, or a
    sequence of n points, for which ``phis`` broadcasts against shape (n, 1):
    row i of the result is point i at ``phis`` (shape (k,)) or at ``phis[i]``
    (shape (n, k)).  One array evaluation of ``quadrature_stats``' arithmetic,
    so a phase of the grid gives ``phase_sensitivity``'s delta-phi bit for bit.
    """
    harmonics = trig_coefficients(params)
    if not isinstance(params, InterferometerParams):
        harmonics = [h[:, None] for h in harmonics]
    with np.errstate(all="ignore"):  # array arithmetic: overflow reads inf or nan
        stats = _homodyne(*harmonics, np.exp(1j * np.asarray(phis, dtype=float)))
        slope = np.abs(stats.dmean_dphi)
        delta = np.sqrt(np.maximum(stats.variance, 0.0)) / slope
    return np.where(slope >= SLOPE_FLOOR, delta, np.inf)


def _quartic_roots(quartic: np.ndarray) -> np.ndarray:
    """Roots of each row of an (n, 5) array as ``np.roots`` finds them, NaN-padded.

    Leading and trailing zeros are stripped per row; the rows whose
    companion matrices share a size go through one stacked eigensolve.
    Roots at zero from trailing zeros are left out: their angle lies
    outside PHASE_BRACKET.
    """
    nonzero = quartic != 0.0
    lead = np.argmax(nonzero, axis=1)
    size = np.where(nonzero.any(axis=1), 4 - lead - np.argmax(nonzero[:, ::-1], axis=1), 0)
    roots = np.full((len(quartic), 4), np.nan, dtype=complex)
    for k in set(size.tolist()) - {0}:
        rows = np.flatnonzero(size == k)
        p = quartic[rows[:, None], lead[rows, None] + np.arange(k + 1)]
        companion = np.zeros((rows.size, k, k), dtype=complex)
        companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots[rows, :k] = np.linalg.eigvals(companion)
    return roots


def _normalized_quartic(m1, v0, v1, v2) -> np.ndarray:
    """The (n, 5) stationary-point quartic of ``optimal_phase``, each row
    divided by its largest modulus, terms below 1e-15 of it dropped."""
    mc = m1.conjugate()
    # the five products of two complex harmonics, from real parts: numpy's
    # complex multiply fuses multiply-adds where the CPU has them, so its
    # last bit would depend on the machine
    a = np.array([m1, 4.0 * mc, m1, 4.0 * m1, mc])
    b = np.array([v1, v2, v1.conjugate(), v2.conjugate(), v1.conjugate()])
    prod = np.empty_like(a)
    prod.real = a.real * b.real - a.imag * b.imag
    prod.imag = a.real * b.imag + a.imag * b.real
    quartic = np.stack([
        prod[0],
        2.0 * m1 * v0 + prod[1],
        6.0 * prod[2].real,
        prod[3] + 2.0 * mc * v0,
        prod[4],
    ], axis=1)
    scale = np.abs(quartic).max(axis=1)
    # terms below rounding on the unit circle are dropped: a near-zero
    # leading coefficient would otherwise overflow the companion matrix
    keep = np.abs(quartic) > 1e-15 * scale[:, None]
    return np.where(keep, quartic / np.where(scale > 0.0, scale, 1.0)[:, None], 0.0)


def _unit_scaled(*harmonics) -> list:
    """The harmonics of each point times the one power of two that brings
    their largest real or imaginary part into [0.5, 1), or 1 where all are 0.

    ``np.ldexp`` scales each part exactly, barring underflow.
    """
    parts = [(h.real, h.imag) if np.iscomplexobj(h) else (h,) for h in harmonics]
    _, exponent = np.frexp(np.max(np.abs([x for p in parts for x in p]), axis=0))
    scaled = [np.empty_like(h) for h in harmonics]
    for out, p in zip(scaled, parts):
        for part, x in zip((out.real, out.imag), p):
            part[...] = np.ldexp(x, -exponent)
    return scaled


def optimal_phase(params):
    """Phase minimizing delta-phi over PHASE_BRACKET, exactly.

    With V = Var X and S = d<X>/dphi, d(V/S^2)/dphi vanishes where
    P = V'S - 2VS' does.  In z = e^{i phi}, P has Laurent coefficients
    P_n = (3 - n) m1 V_{n-1} + (3 + n) conj(m1) V_{n+1}, where V_k are the
    variance harmonics (v0, v1, v2 and conjugates).  The z^{+-3} terms cancel
    identically, so z^2 P is a quartic.  The candidates are the angles of its
    roots, folded by pi into the bracket, plus the two bracket ends; the
    smallest delta-phi among them (the first, on a tie) is the minimum.  No
    grid is scanned, so the result has no resolution setting.

    ``params`` is one point or a sequence of points; a sequence is solved
    as one batch (one stacked eigensolve per companion size, one
    ``sensitivity_curve`` call) into (n,) arrays, with status "divergent"
    (and nan fields) where every candidate diverges (alpha = 0 or t1 = 0);
    one point raises ``DivergentSensitivityError`` there.  The quartic is
    formed from m1 and the v's each scaled by an exact power of two, so it
    is finite wherever the harmonics are (they raise ValueError where they
    overflow).  Where the variance at the best candidate cancels to <= 0,
    delta-phi would read 0: both forms raise ValueError there.  A point's
    result does not depend on the batch it is solved in.
    """
    single = isinstance(params, InterferometerParams)
    points = _series(params)
    lo, hi = PHASE_BRACKET
    _, m1, v0, v1, v2 = trig_coefficients(points)
    # each quartic term is m1 or its conjugate times one v: with m1 and the
    # v's scaled by exact powers of two, no product overflows, and every
    # term, so the normalized quartic, keeps its bits
    quartic = _normalized_quartic(*_unit_scaled(m1), *_unit_scaled(v0, v1, v2))
    roots = np.angle(_quartic_roots(quartic)) % math.pi
    inside = (roots >= lo) & (roots <= hi)
    phis = np.empty((len(points), 6))
    phis[:, 0], phis[:, 1] = lo, hi
    # out-of-bracket roots are evaluated at lo and then ruled out
    phis[:, 2:] = np.where(inside, roots, lo)
    curve = sensitivity_curve(points, phis)
    curve[:, 2:][~inside] = np.inf
    rows = np.arange(len(points))
    best = np.argmin(curve, axis=1)
    value = curve[rows, best]
    phi_opt = np.where(np.isfinite(value), phis[rows, best], np.nan)
    divergent = np.isinf(value)
    # delta-phi is 0 only where the variance at that candidate is <= 0
    _check(_CANCELLED, value != 0.0, points)
    if not single:
        value = np.where(divergent, np.nan, value)
        return OptimalPhaseResult(phi_opt, value, _status(divergent, "divergent"))
    if divergent[0]:
        raise DivergentSensitivityError(
            "every phase in the bracket is uninformative (alpha = 0?)"
        )
    return OptimalPhaseResult(float(phi_opt[0]), float(value[0]))
