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
(``series.series_exp``).  A point's table, cached by (g, alpha, r), keeps
the exponent's entries as Python numbers, the 70 moments, and the value of
each closed form of the exponent a single-point call has read (N, <n_a>,
F), so a query chain computes each once.  Homodyne statistics of the full
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
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .series import _ORDER, DEGREE_CAP, series_exp


@dataclass(frozen=True, slots=True)
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
        # one comparison chain accepts every valid point; the field checks
        # below run only for a point it rejects (or fails to compare), and
        # name what is wrong
        try:
            if (
                0.0 <= self.g < math.inf and 0.0 <= self.r < math.inf
                and 0.0 <= self.t1 <= 1.0 and 0.0 <= self.t2 <= 1.0
                and -math.inf < self.phi < math.inf and cmath.isfinite(self.alpha)
            ):
                return
        except (TypeError, ValueError, ArithmeticError):
            pass
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


def _exponent_entries(params: InterferometerParams):
    """The exponent's linear part (4 complexes) and quadratic rows (4x4
    floats, symmetric) for (g, r, alpha), as Python numbers.

    Raises ValueError naming (g, alpha, r) when a coefficient overflows.
    """
    cr, sr = _cosh_sinh("r", params.r)
    cg, sg = _cosh_sinh("g", params.g)
    alpha = complex(params.alpha)
    ac = alpha.conjugate()

    # every entry is 0.0 + q, the value a numpy fill symmetrized by adding
    # its transposed upper triangle held: -0.0 reads +0.0
    # lam1^2 and lam2^2: (1/2) cosh r sinh r plus the sinh^2 g echo
    d = 0.0 + (0.5 * cr * sr + cr * sr * sg * sg)
    # full monomial coefficients, halved into the symmetric off-diagonal slots;
    # lam2 lam3 pairs as lam1 lam4 and lam2 lam4 as lam1 lam3
    q01 = 0.0 + 0.5 * (sr * sr + (cr * cr + sr * sr) * sg * sg)
    q02 = 0.0 + 0.5 * (-cr * cg * sg)
    q03 = 0.0 + 0.5 * (-sr * cg * sg)
    q23 = 0.0 + 0.5 * (sg * sg)
    lin = [
        ac * cr * cg + alpha * sr * cg,
        ac * sr * cg + alpha * cr * cg,
        -alpha * sg,
        -ac * sg,
    ]
    if not all(map(cmath.isfinite, (d, q01, q02, q03, q23, *lin))):
        raise ValueError(
            f"generating exponent overflows at g={params.g:g}, alpha={alpha:g}, r={params.r:g}"
        )
    quad = [[d, q01, q02, q03], [q01, d, q03, q02], [q02, q03, 0.0, q23], [q03, q02, q23, 0.0]]
    return lin, quad


def build_w_form(params: InterferometerParams) -> WForm:
    """Exponent of the moment generating function for (g, r, alpha).

    Raises ValueError naming (g, alpha, r) when a coefficient overflows.
    """
    lin, quad = _exponent_entries(params)
    return WForm(quadratic=np.array(quad, dtype=complex), linear=np.array(lin, dtype=complex))


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
    Isserlis recurrence (``series_exp``) on the exponent's entries as Python
    numbers, and kept as one complex array in the recurrence's key order, so
    a moment is a dict lookup of its position; a key is validated only when
    that lookup misses.  The table keeps the exponent's entries for the
    closed forms (``_exponent``) and each closed form's value once it is
    read (``_exponent_of``); ``w_form`` builds the exponent's arrays when it
    is read.  Immutable after construction, but for those stored values.
    """

    __slots__ = ("_params", "_exponent", "_moments", "_values")

    def __init__(self, params: InterferometerParams):
        self._params = params
        lin, quad = _exponent_entries(params)
        pair = [[2.0 * q for q in row] for row in quad]
        self._moments = np.fromiter(series_exp(lin, pair).values(), complex, len(_ORDER))
        self._exponent = _Exponent(*lin, *(pair[i][j] for i, j in _PAIR_ENTRIES))
        self._values = {}

    @property
    def w_form(self) -> WForm:
        return build_w_form(self._params)

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
# each is built once per run; a sweep series reads each of its points' tables
# once (``_Series``).
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


class _Series(tuple):
    """The points of a series, and what every sequence call on them reads.

    Each part is computed on first use and kept: the exponent entries as
    (n,) arrays, stacked from each point's cached table; the output
    amplitudes; the phase factors e^{i phi}; the raw harmonics, which
    ``trig_coefficients`` checks on every call.  A sequence call on a plain
    list evaluates it through a state of its own; sweeps build one state per
    series and pass it to every quantity, so each table is read once.
    """

    @cached_property
    def exponent(self) -> _Exponent:
        entries = chain.from_iterable(moment_table(p)._exponent for p in self)
        table = np.fromiter(entries, complex, 12 * len(self)).reshape(-1, 12)
        return _Exponent(*table[:, :4].T, *table[:, 4:].real.T)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        return np.array([_amplitudes(p) for p in self], dtype=float).reshape(-1, 2).T

    @cached_property
    def z(self) -> np.ndarray:
        return np.exp(1j * np.array([p.phi for p in self], dtype=float))

    @cached_property
    def harmonics(self) -> tuple:
        e, (amp_a, amp_b) = self.exponent, self.amplitudes
        with np.errstate(all="ignore"):  # trig_coefficients reports the overflow
            return _harmonics(e, amp_a, amp_b)


def _series(params) -> _Series:
    """The state of a sequence of points: ``params`` itself if it is one."""
    return params if isinstance(params, _Series) else _Series(params)


def _exponent_of(params, formula, overflow=None):
    """``formula(e)`` of the exponent entries e of one point, or of a sequence
    as (n,) arrays (``_Series.exponent``), with numpy's floating-point
    warnings off.  Given an ``overflow`` message, a value that is not finite
    raises it through ``_check_finite``; else the caller checks.

    ``formula`` is a module-level closed form of the exponent alone, passed
    with the same ``overflow`` by every caller: one point's value, once it
    has passed its check, is stored on its cached table, keyed by the
    function, and read from there by every later call
    (``_table.cache_clear()`` drops it with the table).
    """
    if isinstance(params, InterferometerParams):
        table = moment_table(params)
        try:
            return table._values[formula]
        except KeyError:
            value = formula(table._exponent)
            if overflow is not None:
                _check_finite(overflow, (value,), params)
            table._values[formula] = value
            return value
    e = _series(params).exponent
    with np.errstate(all="ignore"):
        value = formula(e)
    if overflow is not None:
        _check_finite(overflow, (value,), params)
    return value


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
        if all(map(cmath.isfinite, values)):  # the common case, without a further call
            return
        _check(what, False, params)
    else:
        _check(what, np.logical_and.reduce([np.isfinite(v) for v in values]), params)


def _check(what, ok, params) -> None:
    """Raise ValueError naming the first point at which ``ok`` fails: a bool
    for one point, an (n,) mask for a sequence."""
    if isinstance(params, InterferometerParams):
        if ok:
            return
        point = params
    else:
        if ok.all():
            return
        point = params[int(np.argmin(ok))]
    raise ValueError(
        f"{what} at g={point.g:g}, alpha={complex(point.alpha):g}, r={point.r:g}"
    )


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
    overflow raises ValueError naming a point: a sequence names the first
    point whose exponent overflows, else the first whose harmonics do.
    """
    if isinstance(params, InterferometerParams):
        coeffs = _harmonics(moment_table(params)._exponent, *_amplitudes(params))
    else:
        coeffs = _series(params).harmonics
    _check_finite("homodyne statistics overflow", coeffs, params)
    return coeffs


def _harmonics(e, amp_a, amp_b):
    """``trig_coefficients`` from the exponent entries e and the output amplitudes."""
    # output mode: sqrt(t1 t2) cosh g e^{-i phi} a + sqrt(t2) sinh g b' + noise
    m0 = amp_b * (e.l2 + e.l3).real
    v0 = 1.0 + amp_a * amp_a * 2.0 * e.p01
    v0 += amp_b * amp_b * (2.0 * e.p23 + 2.0 + e.p22 + e.p33)
    return (
        m0,
        _scaled(amp_a, e.l0),
        v0,
        _scaled(2.0 * amp_a * amp_b, e.p02 + e.p03),
        _scaled(amp_a * amp_a, e.p00),
    )


def _homodyne(m0, m1, v0, v1, v2, z) -> QuadratureStats:
    """The statistics from ``trig_coefficients`` at z = e^{i phi}.

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
    slope = -2.0 * (m1.real * zi + m1.imag * zr)
    return QuadratureStats(mean, variance + mean * mean, variance, slope)


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
        return _homodyne(*trig_coefficients(params), cmath.exp(1j * params.phi))
    state = _series(params)
    with np.errstate(all="ignore"):  # overflow is the callers' to report
        return _homodyne(*trig_coefficients(state), state.z)
