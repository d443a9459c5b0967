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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, DivergentSensitivityError
from .moments import InterferometerParams, moment_table, quadrature_stats, trig_coefficients
from .moments import _homodyne

SLOPE_FLOOR = 1e-12

# the phase interval that optimal_phase searches
PHASE_BRACKET = (1e-3, math.pi - 1e-3)


@dataclass(frozen=True)
class SensitivityReport:
    delta_phi: float
    mean: float
    variance: float
    dmean_dphi: float


@dataclass(frozen=True)
class QfiReport:
    n_total: float
    sql: float
    hl: float
    fisher: float
    qcrb: float


@dataclass(frozen=True)
class LossyQfiReport:
    eta: float
    fisher_lossy: float
    qcrb_lossy: float


@dataclass(frozen=True)
class OptimalPhaseResult:
    phi_opt: float
    delta_phi_min: float


def phase_sensitivity(params: InterferometerParams) -> SensitivityReport:
    """Error-propagation sensitivity sqrt(Var X) / |d<X>/dphi| at the output."""
    stats = quadrature_stats(params)
    if abs(stats.dmean_dphi) < SLOPE_FLOOR:
        raise DivergentSensitivityError(
            f"|d<X>/dphi| = {abs(stats.dmean_dphi):.2e} below {SLOPE_FLOOR}: "
            "no phase information at this operating point"
        )
    delta = math.sqrt(max(stats.variance, 0.0)) / abs(stats.dmean_dphi)
    return SensitivityReport(
        delta_phi=delta, mean=stats.mean, variance=stats.variance, dmean_dphi=stats.dmean_dphi
    )


def _require_finite(name: str, value: float, params: InterferometerParams) -> float:
    if not math.isfinite(value):
        raise ValueError(
            f"{name} overflows at g={params.g:g}, alpha={complex(params.alpha):g}, r={params.r:g}"
        )
    return value


def total_photon_number(params: InterferometerParams) -> float:
    """Mean photon number of the internal state, N = Q1100 + Q0011."""
    tab = moment_table(params)
    n = tab.moment((1, 1, 0, 0)) + tab.moment((0, 0, 1, 1))
    return _require_finite("photon number N", float(n.real), params)


def sql_hl(params: InterferometerParams) -> tuple[float, float]:
    """(1/sqrt(N), 1/N) benchmarks from the ideal internal photon number."""
    n = total_photon_number(params)
    if n <= 0.0 or not math.isfinite(1.0 / n):
        raise DegenerateConfigurationError(f"benchmarks undefined at N = {n:g}")
    return 1.0 / math.sqrt(n), 1.0 / n


def qfi_ideal(params: InterferometerParams) -> QfiReport:
    """Pure-state Fisher information and the associated bounds.

    F = 4 Var(n_a) of the internal state, in connected form from the
    exponent's pair part P = 2 quadratic and linear part l:
    Var n_a = P01 (P01 + 1) + P00 P11 + P00 l1^2 + P11 l0^2 + (2 P01 + 1) l0 l1,
    which is Q2200 + Q1100 - Q1100^2 with the O(|alpha|^4) terms cancelled
    exactly.  The Cramer-Rao bound uses a single measurement (v = 1).
    """
    w = moment_table(params).w_form
    pair, (l0, l1) = 2.0 * w.quadratic, w.linear[:2]
    p00, p01, p11 = pair[0, 0], pair[0, 1], pair[1, 1]
    var_na = (
        p01 * (p01 + 1.0) + p00 * p11 + p00 * l1 * l1 + p11 * l0 * l0
        + (2.0 * p01 + 1.0) * l0 * l1
    )
    fisher = _require_finite("Fisher information", 4.0 * float(var_na.real), params)
    if fisher <= 0.0:
        raise DegenerateConfigurationError(
            f"Fisher information {fisher:.3e} <= 0: vacuum-degenerate configuration"
        )
    n = total_photon_number(params)
    sql, hl = sql_hl(params)
    return QfiReport(
        n_total=n,
        sql=sql,
        hl=hl,
        fisher=fisher,
        qcrb=1.0 / math.sqrt(fisher),
    )


def qfi_lossy(params: InterferometerParams, eta: float) -> LossyQfiReport:
    """Optimized lossy Fisher information F_L and its Cramer-Rao bound.

    F_L = 4 F eta <n_a> / ((1 - eta) F + 4 eta <n_a>); the eta = 0 and
    eta = 1 limits are returned exactly, and a vanishing F_L reports an
    unbounded phase uncertainty.
    """
    if not 0.0 <= eta <= 1.0:  # false for NaN too
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    tab = moment_table(params)
    n_a = tab.moment((1, 1, 0, 0)).real
    fisher = qfi_ideal(params).fisher
    if n_a <= 0.0 and fisher <= 0.0:
        raise DegenerateConfigurationError("lossy Fisher information undefined for vacuum")
    if eta == 1.0:
        fl = fisher
    elif eta == 0.0:
        fl = 0.0
    else:
        fl = 4.0 * fisher * eta * n_a / ((1.0 - eta) * fisher + 4.0 * eta * n_a)
        _require_finite("lossy Fisher information", fl, params)
    qcrb = math.inf if fl == 0.0 else 1.0 / math.sqrt(fl)
    return LossyQfiReport(eta=eta, fisher_lossy=fl, qcrb_lossy=qcrb)


def _harmonics(points) -> np.ndarray:
    """The ``trig_coefficients`` (m0, m1, v0, v1, v2) of n points, as a (5, n) array."""
    return np.array([trig_coefficients(p) for p in points], dtype=complex).reshape(-1, 5).T


def sensitivity_curve(params, phis) -> np.ndarray:
    """Delta-phi over a phase grid; divergent points come back as +inf.

    ``params`` is one point, evaluated at every phase of ``phis``, or a
    sequence of n points, for which ``phis`` broadcasts against shape (n, 1):
    row i of the result is point i at ``phis`` (shape (k,)) or at ``phis[i]``
    (shape (n, k)).  One array evaluation of ``quadrature_stats``' arithmetic,
    so a phase of the grid gives ``phase_sensitivity``'s delta-phi bit for bit.
    """
    single = isinstance(params, InterferometerParams)  # a batch of one, as scalars
    harmonics = _harmonics([params])[:, 0] if single else _harmonics(params)[:, :, None]
    _, variance, slope = _homodyne(*harmonics, np.exp(1j * np.asarray(phis, dtype=float)))
    slope = np.abs(slope)
    out = np.full(slope.shape, np.inf)
    ok = slope >= SLOPE_FLOOR
    out[ok] = np.sqrt(np.maximum(variance[ok], 0.0)) / slope[ok]
    return out


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
    ``sensitivity_curve`` call) and returns one result per point, with
    ``delta_phi_min`` = inf and ``phi_opt`` = nan where every candidate
    diverges (alpha = 0 or t1 = 0).  For a single point that case raises
    ``DivergentSensitivityError``.  A point's result does not depend on the
    batch it is solved in.
    """
    single = isinstance(params, InterferometerParams)
    points = [params] if single else list(params)
    lo, hi = PHASE_BRACKET
    _, m1, v0, v1, v2 = _harmonics(points)
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
    # numpy divides a complex by multiplying with 1/scale, which overflows
    # for subnormal coefficients; lift them by an exact power of two
    lift = (scale > 0.0) & (scale < 2.0**-600)
    quartic[lift] *= 2.0**600
    scale[lift] = np.abs(quartic[lift]).max(axis=1)
    # terms below rounding on the unit circle are dropped: a near-zero
    # leading coefficient would otherwise overflow the companion matrix
    keep = np.abs(quartic) > 1e-15 * scale[:, None]
    quartic = np.where(keep, quartic / np.where(scale > 0.0, scale, 1.0)[:, None], 0.0)
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
    results = [
        OptimalPhaseResult(phi_opt=float(phi), delta_phi_min=float(v))
        for phi, v in zip(phi_opt, value)
    ]
    if not single:
        return results
    if math.isinf(results[0].delta_phi_min):
        raise DivergentSensitivityError(
            "every phase in the bracket is uninformative (alpha = 0?)"
        )
    return results[0]
