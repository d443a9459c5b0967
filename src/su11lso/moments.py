"""Normally ordered moments of the squeezed interferometer state.

The state of interest is S_a(r) U_ts(g) |alpha>_a |0>_b: a coherent state
and vacuum through a two-mode squeezer (gain g, phase 0) followed by a
single-mode squeezer on arm a with generator (r/2)(a'^2 - a^2).  All
normally ordered moments

    Q[x1, y1, x2, y2] = < a'^x1 a^y1 b'^x2 b^y2 >

derive from one generating function exp(w), where w is a quadratic+linear
polynomial in four formal variables (lam1 <-> a', lam2 <-> a, lam3 <-> b',
lam4 <-> b) whose coefficients are hyperbolic functions of g and r and
linear/antilinear in alpha.  Each moment is a pairing sum over those
coefficients, built from lower moments by a recurrence
(``series.series_exp``).  Homodyne statistics of the full
circuit (phase shift phi, fictitious-beam-splitter transmittances t1
internal and t2 external, second squeezer at gain g, phase pi) are
trigonometric polynomials in phi whose coefficients come straight from
that exponent: the mean from its linear part, the variance from its pair
part with sqrt(t) weights.  So d<X>/dphi is available in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConfigurationError, DivergentSensitivityError
from .series import _ORDER, DEGREE_CAP, series_exp


@dataclass(frozen=True)
class InterferometerParams:
    """Physical configuration of the interferometer.

    g: gain of both squeezers (the second runs phase-flipped), g >= 0
    alpha: coherent amplitude at the a input
    r: single-mode squeezing on arm a, r >= 0
    t1: internal transmittance (loss between phase shift and second squeezer)
    t2: external transmittance (loss after the second squeezer)
    phi: phase shift on arm a
    """

    g: float
    alpha: complex
    r: float
    t1: float = 1.0
    t2: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("g", "alpha", "r", "t1", "t2", "phi"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.g < 0:
            raise ValueError("gain g must be >= 0")
        if self.r < 0:
            raise ValueError("squeezing r must be >= 0")
        for name in ("t1", "t2"):
            t = getattr(self, name)
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"transmittance {name} must lie in [0, 1], got {t}")

    def replace(self, **kw) -> "InterferometerParams":
        return replace(self, **kw)


@dataclass(frozen=True, eq=False, slots=True)
class WForm:
    """Quadratic + linear exponent of the moment generating function.

    quadratic is a symmetric 4x4 array Q with w_quad = lam^T Q lam, so the
    coefficient of lam_i^2 is Q[i, i] and the coefficient of the monomial
    lam_i lam_j (i != j) is 2 Q[i, j].  linear[i] is the coefficient of
    lam_{i+1}.  Depends only on (g, r, alpha); phases and transmittances
    enter the homodyne assembly, not the generating function.
    """

    quadratic: np.ndarray
    linear: np.ndarray

    def monomial_coefficient(self, i: int, j: int) -> complex:
        if i == j:
            return complex(self.quadratic[i, i])
        return complex(2.0 * self.quadratic[i, j])


def _cosh_sinh(name: str, value: float) -> tuple[float, float]:
    try:
        return math.cosh(value), math.sinh(value)
    except OverflowError:
        raise ValueError(f"{name}={value:g} is too large: cosh/sinh overflow") from None


def build_w_form(params: InterferometerParams) -> WForm:
    """Exponent of the moment generating function for (g, r, alpha).

    Raises ValueError naming (g, alpha, r) when a coefficient overflows.
    """
    cr, sr = _cosh_sinh("r", params.r)
    cg, sg = _cosh_sinh("g", params.g)
    alpha = complex(params.alpha)
    ac = alpha.conjugate()

    quad = np.zeros((4, 4), dtype=complex)
    # lam1^2 and lam2^2: (1/2) cosh r sinh r plus the sinh^2 g echo
    quad[0, 0] = 0.5 * cr * sr + cr * sr * sg * sg
    quad[1, 1] = quad[0, 0]
    # full monomial coefficients, halved into the symmetric off-diagonal slots
    quad[0, 1] = 0.5 * (sr * sr + (cr * cr + sr * sr) * sg * sg)
    quad[0, 2] = 0.5 * (-cr * cg * sg)
    quad[0, 3] = 0.5 * (-sr * cg * sg)
    quad[1, 2] = 0.5 * (-sr * cg * sg)
    quad[1, 3] = 0.5 * (-cr * cg * sg)
    quad[2, 3] = 0.5 * (sg * sg)
    quad += np.triu(quad, 1).T

    lin = np.array(
        [
            ac * cr * cg + alpha * sr * cg,
            ac * sr * cg + alpha * cr * cg,
            -alpha * sg,
            -ac * sg,
        ],
        dtype=complex,
    )
    if not (np.isfinite(quad).all() and np.isfinite(lin).all()):
        raise ValueError(
            f"generating exponent overflows at g={params.g:g}, alpha={alpha:g}, r={params.r:g}"
        )
    return WForm(quadratic=quad, linear=lin)


# position of each moment key in a table's array, in series_exp's order
_POSITION = {key: n for n, key in enumerate(_ORDER)}


class _Exponent(NamedTuple):
    """The exponent's linear part l_i and the entries p_ij of its pair part
    P = 2 quadratic that the closed forms read (P is real).

    Python numbers for one point; (n,) arrays for a sequence of n points.
    """

    l0: complex
    l1: complex
    l2: complex
    l3: complex
    p00: float
    p01: float
    p02: float
    p03: float
    p11: float
    p22: float
    p23: float
    p33: float


_PAIR_ENTRIES = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (2, 3), (3, 3))


class MomentTable:
    """Every moment of degree <= 4 of one (g, r, alpha) point.

    All 70 moments are built once at construction, in one pass of the
    Isserlis recurrence (``series_exp``), and kept as one complex array in
    the recurrence's key order, so a moment is a dict lookup of its position;
    a key is validated only when that lookup misses.  The exponent itself
    stays available as ``w_form``, and its entries as Python numbers for the
    closed forms.  Immutable after construction.
    """

    __slots__ = ("w_form", "_exponent", "_moments")

    def __init__(self, params: InterferometerParams):
        w = self.w_form = build_w_form(params)
        # Python complexes in, so the recurrence converts no numpy scalars
        lin, pair = w.linear.tolist(), (2.0 * w.quadratic).tolist()
        self._moments = np.fromiter(series_exp(lin, pair).values(), complex, len(_ORDER))
        self._exponent = _Exponent(*lin, *(pair[i][j].real for i, j in _PAIR_ENTRIES))

    def moment(self, key) -> complex:
        try:
            return self._moments.item(_POSITION[key])
        except (KeyError, TypeError):  # not a hashable valid key: validate it
            pass
        key = tuple(int(k) for k in key)
        if len(key) != 4 or any(k < 0 for k in key):
            raise ValueError(f"moment key must be 4 non-negative integers, got {key!r}")
        if sum(key) > DEGREE_CAP:
            raise ValueError(f"moment order {key} exceeds degree cap {DEGREE_CAP}")
        return self._moments.item(_POSITION[key])


# A default figure run sweeps g (figs 3, 7a, 8a, 11a) and alpha (figs 4, 7b,
# 8b, 11b) over the same four r curves: 2 grids x 4 curves x 200 points, plus
# the fixed points of the other presets, is 1,604 distinct (g, alpha, r).  So
# each is built once per run, and optimal_phase's two passes over a series
# (the quartic, then sensitivity_curve) hit for series of up to 2,048 points.
@lru_cache(maxsize=2048)
def _table(g: float, alpha: complex, r: float) -> MomentTable:
    return MomentTable(InterferometerParams(g=g, alpha=alpha, r=r))


def moment_table(params: InterferometerParams) -> MomentTable:
    """Memoized moment table; phi, t1, t2 are irrelevant to the moments."""
    # -0.0 keys as +0.0: they hash alike, and the table must not depend on call order
    return _table(float(params.g) + 0.0, complex(params.alpha) + 0j, float(params.r) + 0.0)


def q_moment(params: InterferometerParams, key) -> complex:
    """Normally ordered moment ``< a'^x1 a^y1 b'^x2 b^y2 >`` of the internal state."""
    return moment_table(params).moment(key)


def _exponent_of(params) -> _Exponent:
    """The exponent entries of one point, or of a sequence as (n,) arrays.

    A sequence reads each point's cached table.
    """
    if isinstance(params, InterferometerParams):
        return moment_table(params)._exponent
    forms = [moment_table(p).w_form for p in params]
    lin = np.array([w.linear for w in forms], dtype=complex).reshape(-1, 4)
    quad = np.array([w.quadratic for w in forms], dtype=complex).reshape(-1, 4, 4)
    pair = 2.0 * quad.real
    return _Exponent(*lin.T, *(pair[:, i, j] for i, j in _PAIR_ENTRIES))


def _re_product(a, b):
    """Re(a b) of complex numbers or arrays, without fused multiply-adds.

    numpy's complex multiply fuses them where the CPU has them, which moves
    the last bit of a general product.  A real times a complex keeps its
    value, since one of its two partial products is an exact zero; only the
    sign of a zero part may differ (``_scaled`` keeps that too).
    """
    return a.real * b.real - a.imag * b.imag


def _scaled(c, z):
    """c z for real c, as Python multiplies complex(c, 0) by z, for numbers or arrays.

    numpy's complex multiply can give a zero part of the product the other sign.
    """
    re = c * z.real - 0.0 * z.imag
    im = c * z.imag + 0.0 * z.real
    if isinstance(re, float):
        return complex(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _check_finite(what, values, params) -> None:
    """Raise ValueError naming the first point at which one of ``values`` is not finite."""
    if isinstance(params, InterferometerParams):
        if all(map(cmath.isfinite, values)):
            return
        point = params
    else:
        finite = np.logical_and.reduce([np.isfinite(v) for v in values])
        if finite.all():
            return
        point = params[int(np.argmin(finite))]
    raise ValueError(
        f"{what} at g={point.g:g}, alpha={complex(point.alpha):g}, r={point.r:g}"
    )


def _raise_first_point(fn, params, *args) -> None:
    """Raise the ValueError that a failed sequence call's first failing point
    raises alone.

    A sequence call runs each check over every point before the next check,
    so its own ValueError can name a later point.  ``args`` hold one value
    per point; one point, or none that fails alone, returns.
    """
    if isinstance(params, InterferometerParams):
        return
    for point, *point_args in zip(params, *args):
        try:
            fn(point, *point_args)
        except (DivergentSensitivityError, DegenerateConfigurationError):
            pass


def _amplitudes(params: InterferometerParams) -> tuple[float, float]:
    """Weights sqrt(t1 t2) cosh g of a and sqrt(t2) sinh g of b' in the output mode."""
    return (
        math.sqrt(params.t1 * params.t2) * math.cosh(params.g),
        math.sqrt(params.t2) * math.sinh(params.g),
    )


def trig_coefficients(params):
    """Phase harmonics (m0, m1, v0, v1, v2) of X = a' + a at the output port.

    With z = e^{i phi}: <X> = m0 + 2 Re(m1 z), d<X>/dphi = -2 Im(m1 z) and
    Var X = v0 + 2 Re(v1 z + v2 z^2).  The m's are the generating exponent's
    linear coefficients (the internal first moments); the v's are its
    connected pair parts 2 quadratic[i, j], so the variance never cancels
    against <X>^2 and does not depend on alpha.  The constant 1 + 2 t2 sinh^2 g
    is the vacuum unit from the commutators.

    ``params`` is one point, giving (float, complex, float, complex, complex),
    or a sequence of n points, giving (n,) arrays in those places.  An
    overflow raises ValueError naming the point (for a sequence, the one its
    first failing point raises alone).
    """
    try:
        e = _exponent_of(params)
        # output mode: sqrt(t1 t2) cosh g e^{-i phi} a + sqrt(t2) sinh g b' + noise
        if isinstance(params, InterferometerParams):
            amp_a, amp_b = _amplitudes(params)
        else:
            amps = np.array([_amplitudes(p) for p in params], dtype=float)
            amp_a, amp_b = amps.reshape(-1, 2).T
        m0 = amp_b * (e.l2 + e.l3).real
        v0 = 1.0 + amp_a * amp_a * 2.0 * e.p01
        v0 += amp_b * amp_b * (2.0 * e.p23 + 2.0 + e.p22 + e.p33)
        coeffs = (
            m0,
            _scaled(amp_a, e.l0),
            v0,
            _scaled(2.0 * amp_a * amp_b, e.p02 + e.p03),
            _scaled(amp_a * amp_a, e.p00),
        )
        _check_finite("homodyne statistics overflow", coeffs, params)
    except ValueError:
        _raise_first_point(trig_coefficients, params)
        raise
    return coeffs


def _homodyne(m0, m1, v0, v1, v2, z):
    """(<X>, Var X, d<X>/dphi) from ``trig_coefficients`` at z = e^{i phi}.

    Complex products are written out in Python's real arithmetic and operand
    order, so numbers and numpy arrays (whose complex multiply may fuse
    multiply-adds) give the same bits.  Callers take z from exp(1j phi), not
    cos/sin, which give z.imag = -0.0 at phi = -0.0 and can flip a zero slope.
    """
    zr, zi = z.real, z.imag
    v2z_r = v2.real * zr - v2.imag * zi
    v2z_i = v2.real * zi + v2.imag * zr
    mean = m0.real + 2.0 * (m1.real * zr - m1.imag * zi)
    variance = v0.real + 2.0 * ((v1.real * zr - v1.imag * zi) + (v2z_r * zr - v2z_i * zi))
    return mean, variance, -2.0 * (m1.real * zi + m1.imag * zr)


@dataclass(frozen=True)
class QuadratureStats:
    """Homodyne statistics of X = a' + a at the output port."""

    mean: float
    second_moment: float
    variance: float
    dmean_dphi: float


def quadrature_stats(params) -> QuadratureStats:
    """Mean, second moment, variance and exact phase slope of X = a' + a.

    A sequence of points gives the same fields as (n,) arrays.
    """
    if isinstance(params, InterferometerParams):
        z = cmath.exp(1j * params.phi)
    else:
        z = np.exp(1j * np.array([p.phi for p in params], dtype=float))
    mean, variance, slope = _homodyne(*trig_coefficients(params), z)
    return QuadratureStats(mean, variance + mean * mean, variance, slope)
