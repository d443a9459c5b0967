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
Var X / (d<X>/dphi)^2 is a real root of one real quartic in tan(phi/2),
found in closed form, which also covers the several stationary points the
sensitivity curve develops at strong squeezing.

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
from .moments import InterferometerParams, _point_or_series, quadrature_stats, trig_coefficients
from .moments import _check, _check_finite, _elementwise, _exponent_of, _homodyne, _re_product, _series

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
    params = _point_or_series(params)
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
    return _mode_a_number(e) + (_re_product(e.l2, e.l3) + e.p23)


def total_photon_number(params):
    """Mean photon number of the internal state, N = Q1100 + Q0011.

    A sequence of points gives an (n,) array.
    """
    return _exponent_of(_point_or_series(params), _photon_number, "photon number N overflows")


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
    exponent's pair part P (with P11 = P00) and linear part l:
    Var n_a = P01 (P01 + 1) + P00^2 + P00 (l1^2 + l0^2) + (2 P01 + 1) l0 l1,
    which is Q2200 + Q1100 - Q1100^2 with the O(|alpha|^4) terms cancelled
    exactly.  The Cramer-Rao bound uses a single measurement (v = 1).

    A sequence of points gives (n,) arrays with status "degenerate" (and nan
    in every field but N) where one point raises
    ``DegenerateConfigurationError``.
    """
    params = _point_or_series(params)
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
        e.p01 * (e.p01 + 1.0) + e.p00 * e.p00 + _re_product(e.p00 * e.l1, e.l1)
        + _re_product(e.p00 * e.l0, e.l0) + _re_product((2.0 * e.p01 + 1.0) * e.l0, e.l1)
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
    params = _point_or_series(params)
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


# The stationary-point quartic of ``optimal_phase`` is self-inversive: its
# coefficients are (c0, c1, c2, conj c1, conj c0) with c2 real, so on the unit
# circle z^-2 times it is T(phi) = c2 + 2 Re(c1 z) + 2 Re(c0 z^2).  For each
# turn k = 0..7, (1 + w^2)^2 T(k pi/4 + 2 atan w) is a real quartic in w,
# whose leading coefficient is T(k pi/4 + pi).  Each of its coefficients is a
# fixed combination of the ten products of m1's parts (Re, Im) with the v's
# parts (v0, Re v1, Im v1, Re v2, Im v2), product 5 a + b of m part a and v
# part b.  _QUARTIC_WEIGHTS[j, k, i] weighs product j in coefficient i
# (leading first) of turn k.

# cos and sin of k pi/4, each times sqrt(2) where k is odd
_EIGHTHS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def _quartic_weights() -> np.ndarray:
    # rows c2, Re c1, Im c1, Re c0, Im c0, from c0 = m1 v1,
    # c1 = 2 m1 v0 + 4 conj(m1) v2 and c2 = 6 Re(m1 conj v1)
    harmonics = np.zeros((5, 10), dtype=int)
    for row, terms in enumerate((
        {1: 6, 7: 6},
        {0: 2, 3: 4, 9: 4},
        {5: 2, 4: 4, 8: -4},
        {1: 1, 7: -1},
        {2: 1, 6: 1},
    )):
        for j, w in terms.items():
            harmonics[row, j] = w
    # the quartic in tan(phi/2), leading first, over the rows above
    quartic = np.array([
        [1, -2, 0, 2, 0],
        [0, 0, -4, 0, 8],
        [2, 0, 0, -12, 0],
        [0, 0, -4, 0, -8],
        [1, 2, 0, 2, 0],
    ])
    turns = []
    for k, (cos1, sin1) in enumerate(_EIGHTHS):
        # turn k rotates c1 by k pi/4 and c0 by k pi/2
        cos2, sin2 = _EIGHTHS[2 * k % 8]
        even = np.zeros((5, 5), dtype=int)
        even[0, 0] = 1
        even[3:, 3:] = [[cos2, -sin2], [sin2, cos2]]
        odd = np.zeros((5, 5), dtype=int)
        odd[1:3, 1:3] = [[cos1, -sin1], [sin1, cos1]]
        scale = math.sqrt(0.5) if k % 2 else 1.0
        turns.append(quartic @ even @ harmonics + scale * (quartic @ odd @ harmonics))
    return np.stack(turns).transpose(2, 0, 1)


_QUARTIC_WEIGHTS = _quartic_weights()
_LEADING_WEIGHTS = np.ascontiguousarray(_QUARTIC_WEIGHTS[:, :, :1])  # [j, k, 0]
_TURN_WEIGHTS = np.ascontiguousarray(_QUARTIC_WEIGHTS.transpose(1, 0, 2))  # [k, j, i]

# points whose quartics are formed at once, in about 1.6 kB of terms each:
# larger blocks were slower at 800 and 1600 points (a figure sweep)
_QUARTIC_BLOCK = 256


def _parts(*harmonics) -> np.ndarray:
    """The real and imaginary parts of the harmonics, one row each (one row
    for a real harmonic)."""
    return np.array([
        x for h in harmonics for x in ((h.real, h.imag) if np.iscomplexobj(h) else (h,))
    ])


def _unit_scaled(parts: np.ndarray) -> np.ndarray:
    """The parts of each point (a column) times the one power of two that
    brings the largest of them into [0.5, 1), or 1 where all are 0.

    ``np.ldexp`` scales each part exactly, barring underflow.
    """
    _, exponent = np.frexp(np.abs(parts).max(axis=0))
    return np.ldexp(parts, -exponent)


def _stationary_quartic(m_parts: np.ndarray, v_parts: np.ndarray):
    """The turn k of each point whose T(k pi/4 + pi) is largest in magnitude,
    and that turn's quartic, monic: (k, (A, B, C, D)) as (n,) arrays.

    m_parts holds m1's parts and v_parts the v's (``_parts``).  Of eight
    equally spaced values of a trigonometric polynomial of degree 2, the
    largest is at least cos(pi/4) of its maximum, and |T'| <= 2 max |T|, so
    every real root keeps |w| below 6: none lies near infinity, as one does
    in tan(phi/2) where T(pi) = 0 (imaginary alpha).  Scaling either part set
    by a power of two scales every coefficient alike, so the monic quartic
    keeps its bits.  The weighted products are summed in a fixed order, so
    the bits do not depend on numpy's SIMD dispatch either.  Where T
    vanishes (alpha = 0, t1 = 0) the coefficients are nan.
    """
    products = (m_parts[:, None] * v_parts[None]).reshape(10, -1)
    n = products.shape[1]
    turn = np.empty(n, dtype=np.intp)
    coeffs = np.empty((n, 5))
    for start in range(0, n, _QUARTIC_BLOCK):
        block = slice(start, start + _QUARTIC_BLOCK)
        # the turn from the 8 leading coefficients, then that turn's 5 alone;
        # the terms are added one product at a time: numpy's sum pairs terms
        # by the array's shape, so a point's bits would depend on its batch
        terms = _LEADING_WEIGHTS * products[:, None, block]
        leading = terms[0]
        for term in terms[1:]:
            leading = leading + term
        k = turn[block] = np.argmax(np.abs(leading), axis=0)
        terms = (_TURN_WEIGHTS[k] * products[:, block].T[:, :, None]).transpose(1, 0, 2)
        coeffs[block] = terms[0]
        for term in terms[1:]:
            coeffs[block] += term
    a4, a3, a2, a1, a0 = coeffs.T
    return turn, (a3 / a4, a2 / a4, a1 / a4, a0 / a4)


def _cbrt(x: np.ndarray) -> np.ndarray:
    """Real cube root of each element by Python's float power
    (``_elementwise``; ``math.cbrt`` needs Python 3.11)."""
    return np.copysign(_elementwise(lambda v: v ** (1.0 / 3.0), np.abs(x)), x)


def _stationary_phases(m_parts: np.ndarray, v_parts: np.ndarray) -> np.ndarray:
    """The (n, 4) phases in [0, pi) at the real parts of the stationary-point
    quartic's roots, solved in closed form by Ferrari's method.

    The quartic in w = tan((phi - k pi/4)/2), monic, is depressed by
    w = y - A/4 to y^4 + p y^2 + q y + r and split as
    (y^2 + s y + beta)(y^2 - s y + gamma), with s^2 = 2 m for the largest
    root m of the resolvent cubic m^3 + p m^2 + (p^2/4 - r) m - q^2/8.
    gamma - beta is taken as sign(q) sqrt((p + 2m)^2 - 4r) (+ at q = 0),
    not q/s, which loses every digit where m is near 0 (q near 0).  Each
    real root is polished by two Newton steps on the quartic; the real part
    of a complex pair is kept as found: a merged pair's real part is where
    the two stationary points met, and a Newton step there, where the slope
    vanishes, would throw it away.  Only + - * / and sqrt come from numpy,
    which rounds them correctly; the transcendental functions come from
    ``math``, so the phases do not depend on the CPU.
    """
    turn, (a, b, c, d) = _stationary_quartic(m_parts, v_parts)
    h = 0.25 * a
    hh = h * h
    p = b - 6.0 * hh
    q = c - h * (2.0 * b - 8.0 * hh)
    r = d - h * (c - h * (b - 3.0 * hh))
    # the resolvent cubic, depressed by m = x - p/3: x^3 + 3 P3 x + 2 Q2
    p3 = -(p * p) / 36.0 - r / 3.0
    q2 = p * (r / 6.0 - (p * p) / 216.0) - 0.0625 * (q * q)
    disc = q2 * q2 + p3 * p3 * p3
    # one real root (disc > 0) by Cardano, else the largest of three by cosines
    u = _cbrt(-(q2 + np.copysign(np.sqrt(disc), q2)))
    rho = np.sqrt(-p3)
    cosine = np.clip(-q2 / np.maximum(rho * rho * rho, 5e-324), -1.0, 1.0)
    angle = _elementwise(math.acos, cosine) / 3.0
    x = np.where(disc > 0.0, u - p3 / u, 2.0 * rho * _elementwise(math.cos, angle))
    s2 = np.maximum(2.0 * x - (2.0 / 3.0) * p, 0.0)  # 2 m
    s = np.sqrt(s2)
    total = p + s2
    diff = np.sqrt(np.maximum(total * total - 4.0 * r, 0.0))
    diff = np.where(q < 0.0, -diff, diff)
    # y^2 + s y + beta and y^2 - s y + gamma: discriminants s^2 - 4 beta, s^2 - 4 gamma
    quad = s2 - 2.0 * np.array([total - diff, total + diff])
    centre = np.array([-0.5 * s, 0.5 * s])
    spread = 0.5 * np.sqrt(np.maximum(quad, 0.0))
    w = np.concatenate([centre + spread, centre - spread]) - h
    real = np.concatenate([quad, quad]) >= 0.0
    a3, b2 = 3.0 * a, 2.0 * b
    polished = w
    for _ in range(2):
        f = (((polished + a) * polished + b) * polished + c) * polished + d
        slope = ((4.0 * polished + a3) * polished + b2) * polished + c
        polished = polished - np.where(real, f / slope, 0.0)
    # a zero slope (a double root) keeps the root as found
    w = np.where(np.isfinite(polished), polished, w)
    # phi = k pi/4 + 2 atan w, folded by pi
    phis = 2.0 * _elementwise(math.atan, w) + (turn % 4) * (0.25 * math.pi)
    return (phis % math.pi).T


def optimal_phase(params):
    """Phase minimizing delta-phi over PHASE_BRACKET, exactly.

    With V = Var X and S = d<X>/dphi, d(V/S^2)/dphi vanishes where
    P = V'S - 2VS' does.  In z = e^{i phi}, P has Laurent coefficients
    P_n = (3 - n) m1 V_{n-1} + (3 + n) conj(m1) V_{n+1}, where V_k are the
    variance harmonics (v0, v1, v2 and conjugates).  The z^{+-3} terms cancel
    identically, so z^2 P is a quartic, and on the unit circle z^-2 times it
    is real: a real quartic in tan(phi/2), solved in closed form
    (``_stationary_phases``).  The candidates are the phases of the real
    parts of its roots, folded by pi into the bracket, plus the two bracket
    ends; the smallest delta-phi among them (the first, on a tie) is the
    minimum.  No grid is scanned, so the result has no resolution setting,
    and no step depends on numpy's SIMD dispatch.

    ``params`` is one point or a sequence of points; a sequence is solved
    as one batch (one array pass of the closed form, one
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
    with np.errstate(all="ignore"):  # a point without a quartic has nan phases
        # m1 and the v's scaled by exact powers of two: no product overflows
        roots = _stationary_phases(_unit_scaled(_parts(m1)), _unit_scaled(_parts(v0, v1, v2)))
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
