"""Normally ordered moments of the squeezed interferometer state.

The state of interest is S_a(r) U_ts(g) |alpha>_a |0>_b: a coherent state
and vacuum through a two-mode squeezer (gain g, phase 0) followed by a
single-mode squeezer on arm a with generator (r/2)(a'^2 - a^2).  All
normally ordered moments

    Q[x1, y1, x2, y2] = < a'^x1 a^y1 b'^x2 b^y2 >

derive from one generating function exp(w), where w is a quadratic+linear
polynomial in four formal variables (lam1 <-> a', lam2 <-> a, lam3 <-> b',
lam4 <-> b) whose coefficients are hyperbolic functions of g and r and
linear/antilinear in alpha; one record (``_Exponent``) holds them.  Each
moment is a pairing sum over those coefficients, built from lower moments
by a recurrence (``series.series_exp``).  A point's table, cached by
(g, alpha, r), keeps the record on Python numbers, the 70 moments, and the
value of each closed form of the exponent a single-point call has read (N,
<n_a>, F), so a query chain computes each once.  A sequence of points is
one state of columns (``_Series``), built once per call; where its
(g, alpha, r) varies, one call of the same builder (``_exponent_entries``)
on arrays gives the record as (n,) arrays, each element with its table's
bits, and no table is built.  Homodyne statistics of the full circuit
(phase shift phi, fictitious-beam-splitter transmittances t1 internal and
t2 external, second squeezer at gain g, phase pi) are trigonometric
polynomials in phi whose coefficients come straight from that record: the
mean from its linear part, the variance from its pair part with sqrt(t)
weights.  So d<X>/dphi is available in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from itertools import chain, repeat
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
        # one comparison chain accepts every valid point of Python floats
        # (alpha complex too); the field checks below run only for a point it
        # rejects (or fails to compare, or of other types), and name what is wrong
        try:
            if (
                float is type(self.g) is type(self.r) is type(self.t1) is type(self.t2)
                is type(self.phi) and type(self.alpha) in _FLOAT_OR_COMPLEX
                and 0.0 <= self.g < math.inf and 0.0 <= self.r < math.inf
                and 0.0 <= self.t1 <= 1.0 and 0.0 <= self.t2 <= 1.0
                and -math.inf < self.phi < math.inf and cmath.isfinite(self.alpha)
            ):
                return
        except (TypeError, ValueError, ArithmeticError):
            pass
        for name in ("g", "alpha", "r", "t1", "t2", "phi"):
            value = getattr(self, name)
            _check_number(name, value)
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


_FLOAT_OR_COMPLEX = frozenset((float, complex))


def _check_number(name: str, value) -> None:
    """Reject a bool or an array, which would compare and read as a number."""
    if isinstance(value, (bool, np.bool_, np.ndarray)):
        raise TypeError(f"{name} must be a number, not {type(value).__name__}")


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn (libm's, through ``math``) on each element of x: libm rounds alike on
    every CPU, numpy's SIMD cosh, sinh, acos, cos and atan do not."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _cosh_sinh(name: str, value):
    """cosh and sinh from ``math``, of a number or of each element of an (n,)
    array (``_elementwise``).

    A number raises ValueError naming it where they overflow; an array lets
    ``math``'s OverflowError through.
    """
    if isinstance(value, np.ndarray):
        return _elementwise(math.cosh, value), _elementwise(math.sinh, value)
    try:
        return math.cosh(value), math.sinh(value)
    except OverflowError:
        raise ValueError(f"{name}={value:g} is too large: cosh/sinh overflow") from None


class _Exponent(NamedTuple):
    """The generating exponent w of one (g, r, alpha) point, or of a sequence:
    Python numbers for one point, (n,) arrays for a sequence of n points.

    l0..l3, its linear part, are the coefficients of lam1..lam4.  Its pair
    part P (the second derivatives, real and symmetric) has five free entries:
    lam2 pairs with lam2, lam3, lam4 as lam1 with lam1, lam4, lam3, and
    lam3 and lam4 have no square:

        P = [[p00, p01, p02, p03],
             [p01, p00, p03, p02],
             [p02, p03, 0,   p23],
             [p03, p02, p23, 0  ]]
    """

    l0: complex
    l1: complex
    l2: complex
    l3: complex
    p00: float
    p01: float
    p02: float
    p03: float
    p23: float


def _exponent_entries(g, alpha, r) -> _Exponent:
    """The exponent of (g, r, alpha), with alpha a complex.

    One builder for both routes: on Python numbers (a point's table), or on
    (n,) arrays in place of any of g, alpha, r (a series), when the entries
    that depend on an array are (n,) arrays, each element the bits of that
    point's number, and the rest numbers.  On numbers, raises ValueError
    naming (g, alpha, r) when a coefficient overflows; on arrays, the caller
    checks (``_Series.exponent``).
    """
    cr, sr = _cosh_sinh("r", r)
    cg, sg = _cosh_sinh("g", g)
    ac = alpha.conjugate()

    # halved pair entries, each 0.0 + q as a symmetrized numpy fill held it
    # (-0.0 reads +0.0); lam1^2: (1/2) cosh r sinh r plus the sinh^2 g echo
    d = 0.0 + (0.5 * cr * sr + cr * sr * sg * sg)
    q01 = 0.0 + 0.5 * (sr * sr + (cr * cr + sr * sr) * sg * sg)
    q02 = 0.0 + 0.5 * (-cr * cg * sg)
    q03 = 0.0 + 0.5 * (-sr * cg * sg)
    q23 = 0.0 + 0.5 * (sg * sg)
    # complex times real as Python multiplies complex(c, 0) by z (``_scaled``)
    lin = [
        _scaled(cg, _scaled(cr, ac)) + _scaled(cg, _scaled(sr, alpha)),
        _scaled(cg, _scaled(sr, ac)) + _scaled(cg, _scaled(cr, alpha)),
        _scaled(sg, -alpha),
        _scaled(sg, -ac),
    ]
    if isinstance(lin[0], complex) and not all(
        map(cmath.isfinite, (d, q01, q02, q03, q23, *lin))
    ):
        raise ValueError(f"generating exponent overflows at g={g:g}, alpha={alpha:g}, r={r:g}")
    return _Exponent(*lin, 2.0 * d, 2.0 * q01, 2.0 * q02, 2.0 * q03, 2.0 * q23)


# position of each moment key in a table's array, in series_exp's order
_POSITION = {key: n for n, key in enumerate(_ORDER)}


class MomentTable:
    """Every moment of degree <= 4 of one (g, r, alpha) point.

    The table holds the point's exponent record (``_exponent``, Python
    numbers), which the closed forms read, and each closed form's value once
    it is read (``_exponent_of``).  All 70 moments are built once at
    construction, in one pass of the Isserlis recurrence (``series_exp``) on
    the record's symmetric pair matrix, and kept as one complex array in the
    recurrence's key order, so a moment is a dict lookup of its position; a
    key is validated only when that lookup misses.  Immutable after
    construction, but for the stored values.
    """

    __slots__ = ("_exponent", "_moments", "_values")

    def __init__(self, params: InterferometerParams):
        e = self._exponent = _exponent_entries(params.g, complex(params.alpha), params.r)
        p00, p01, p02, p03, p23 = e[4:]
        pair = [[p00, p01, p02, p03], [p01, p00, p03, p02], [p02, p03, 0.0, p23], [p03, p02, p23, 0.0]]
        self._moments = np.fromiter(series_exp(e[:4], pair).values(), complex, len(_ORDER))
        self._values = {}

    def moment(self, key) -> complex:
        try:
            return self._moments.item(_POSITION[key])
        except (KeyError, TypeError):  # not a hashable valid key: validate it
            pass
        key = tuple(key)
        try:
            ints = tuple(map(int, key))
        except (TypeError, ValueError, ArithmeticError):  # not a number, or not finite
            ints = None
        if ints == key:  # every entry an integer, as 1 and 1.0 are
            key = ints
        if ints != key or len(key) != 4 or min(key) < 0:
            raise ValueError(f"moment key must be 4 non-negative integers, got {key!r}")
        if sum(key) > DEGREE_CAP:
            raise ValueError(f"moment order {key} exceeds degree cap {DEGREE_CAP}")
        return self._moments.item(_POSITION[key])


# Single points and the series whose (g, alpha, r) is one point read a table;
# a series whose (g, alpha, r) varies builds its exponent entries as arrays
# and no table (``_Series``).  A default figure run builds 4 tables: one per
# r curve at g = alpha = 1.
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


# InterferometerParams' fields, in its positional order
_FIELDS = tuple(f.name for f in fields(InterferometerParams))


class _Series:
    """A sequence of n points by columns, and what every sequence call on them reads.

    ``columns`` holds g, alpha, r, t1, t2 and phi, in ``_FIELDS`` order: each
    is one value shared by every point or a list of n values (a sweep's
    swept column; every column of a plain list of points), taken as valid
    (a sweep checks its grid's ends: ``sweeps._series_points``).  Two parts
    are computed on first use and kept: the exponent entries as (n,) arrays,
    read from the point's cached table (``moment_table``) where (g, alpha, r)
    is one point, else built once by ``_exponent_entries``; and the raw
    harmonics, which ``trig_coefficients`` checks on every call.
    ``InterferometerParams`` are built only to read the one table, and to
    name a failing point (``point``).
    """

    def __init__(self, columns: list, n: int):
        self.columns = columns
        self.n = n

    def __len__(self) -> int:
        return self.n

    def point(self, i: int) -> InterferometerParams:
        return InterferometerParams(*(c[i] if isinstance(c, list) else c for c in self.columns))

    @cached_property
    def exponent(self) -> _Exponent:
        return _Exponent(*(_per_point(v, self.n) for v in self.entries()))

    def entries(self) -> _Exponent:
        """The exponent entries, built on each call: numbers, or (n,) arrays."""
        g, alpha, r = self.columns[:3]
        if not any(isinstance(c, list) for c in (g, alpha, r)):
            return moment_table(InterferometerParams(g, alpha, r))._exponent
        # -0.0 keys as +0.0, as in moment_table
        g, r = (np.array(c, dtype=float) + 0.0 if isinstance(c, list) else float(c) + 0.0
                for c in (g, r))
        alpha = np.array(alpha, dtype=complex) + 0j if isinstance(alpha, list) else complex(alpha) + 0j
        try:
            with np.errstate(all="ignore"):  # a non-finite entry is replayed below
                entries = _exponent_entries(g, alpha, r)
            finite = all(np.isfinite(v).all() for v in entries)
        except OverflowError:  # math.cosh or math.sinh of an element
            finite = False
        if not finite:  # raise the error of the first point that overflows alone
            for point in zip(*(np.broadcast_to(v, (self.n,)).tolist() for v in (g, alpha, r))):
                _exponent_entries(*point)
        return entries

    @cached_property
    def harmonics(self) -> tuple:
        e = self.exponent  # first: a point's own overflow names it before math.cosh's
        g, _, _, t1, t2, _ = self.columns
        g, t1, t2 = (np.array(c, dtype=float) if isinstance(c, list) else c for c in (g, t1, t2))
        # the output amplitudes as one point forms them (``trig_coefficients``):
        # math's cosh and sinh, and sqrt, which numpy and math both round correctly
        cg, sg = _cosh_sinh("g", g)
        with np.errstate(all="ignore"):  # trig_coefficients reports the overflow
            return _harmonics(e, np.sqrt(t1 * t2) * cg, np.sqrt(t2) * sg)


def _joined(states: list[_Series]) -> _Series:
    """The points of several states as one state: each state's exponent
    entries are joined, so every point keeps its bits; a column is one
    value where every state holds that same object."""
    if len(states) == 1:
        return states[0]
    columns = []
    for values in zip(*(s.columns for s in states)):
        first = values[0]
        if not isinstance(first, list) and all(v is first for v in values):
            columns.append(first)
        else:
            columns.append(list(chain.from_iterable(
                v if isinstance(v, list) else repeat(v, s.n) for s, v in zip(states, values)
            )))
    joined = _Series(columns, sum(s.n for s in states))
    joined.exponent = _Exponent(*(
        np.concatenate([np.broadcast_to(v, (s.n,)) for s, v in zip(states, values)])
        for values in zip(*(s.entries() for s in states))
    ))
    return joined


def _per_point(value, n: int) -> np.ndarray:
    """An (n,) array of a column's values: value itself if it is one, else
    value at every point."""
    return value if np.ndim(value) else np.full(n, value)


def _series(params) -> _Series:
    """The state of a sequence of points, or of one point as a series of one:
    ``params`` itself if it is one."""
    if isinstance(params, _Series):
        return params
    if isinstance(params, InterferometerParams):
        return _Series([getattr(params, name) for name in _FIELDS], 1)
    points = list(params)
    return _Series([[getattr(p, name) for p in points] for name in _FIELDS], len(points))


def _point_or_series(params):
    """One point as it is, else its sequence's state (``_series``): a public
    function reads its argument through this once and passes the result to
    each call it chains, so a sequence (an iterator too) is read once."""
    return params if isinstance(params, InterferometerParams) else _series(params)


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
    zr, zi = z.real, z.imag
    re = c * zr - 0.0 * zi
    im = c * zi + 0.0 * zr
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
        point = _series(params).point(int(np.argmin(ok)))
    raise ValueError(
        f"{what} at g={point.g:g}, alpha={complex(point.alpha):g}, r={point.r:g}"
    )


def trig_coefficients(params):
    """Phase harmonics (m0, m1, v0, v1, v2) of X = a' + a at the output port.

    With z = e^{i phi}: <X> = m0 + 2 Re(m1 z), d<X>/dphi = -2 Im(m1 z) and
    Var X = v0 + 2 Re(v1 z + v2 z^2).  The m's are the generating exponent's
    linear coefficients (the internal first moments); the v's are its
    connected pair entries p_ij, so the variance never cancels
    against <X>^2 and does not depend on alpha.  The constant 1 + 2 t2 sinh^2 g
    is the vacuum unit from the commutators.

    ``params`` is one point, giving (float, complex, float, complex, complex),
    or a sequence of n points, giving (n,) arrays in those places.  An
    overflow raises ValueError naming a point: a sequence names the first
    point whose exponent overflows, else the first whose harmonics do.
    """
    params = _point_or_series(params)
    if isinstance(params, InterferometerParams):
        coeffs = _harmonics(
            moment_table(params)._exponent,  # first: a point's overflow names it
            math.sqrt(params.t1 * params.t2) * math.cosh(params.g),
            math.sqrt(params.t2) * math.sinh(params.g),
        )
    else:
        coeffs = params.harmonics
    _check_finite("homodyne statistics overflow", coeffs, params)
    return coeffs


def _harmonics(e, amp_a, amp_b):
    """``trig_coefficients`` from the exponent entries e and the output amplitudes."""
    # output mode: sqrt(t1 t2) cosh g e^{-i phi} a + sqrt(t2) sinh g b' + noise
    m0 = amp_b * (e.l2 + e.l3).real
    v0 = (1.0 + amp_a * amp_a * 2.0 * e.p01) + amp_b * amp_b * (2.0 * e.p23 + 2.0)
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
    z = np.exp(1j * _per_point(np.array(state.columns[5], dtype=float), state.n))
    with np.errstate(all="ignore"):  # overflow is the callers' to report
        return _homodyne(*trig_coefficients(state), z)
