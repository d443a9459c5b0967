"""The earlier phase optimum, through the companion matrix, as a reference.

The package once found the stationary points of delta-phi as the angles of
the roots of one complex quartic in z = e^{i phi}, the eigenvalues of its
companion matrix (``np.roots``).  It now solves a real quartic in
tan(phi/2) in closed form; this module keeps the eigensolve so the tests
can hold the closed form to it.
"""

from __future__ import annotations

import math

import numpy as np

from su11lso.metrology import PHASE_BRACKET, sensitivity_curve
from su11lso.moments import trig_coefficients


def unit(*harmonics) -> list:
    """The harmonics times the power of two that brings their largest real
    or imaginary part into [0.5, 1), by ``math.frexp`` and ``math.ldexp``."""
    parts = [h.real for h in harmonics] + [h.imag for h in harmonics]
    _, e = math.frexp(max(map(abs, parts)))
    return [
        complex(math.ldexp(h.real, -e), math.ldexp(h.imag, -e)) if isinstance(h, complex)
        else math.ldexp(h, -e)
        for h in harmonics
    ]


def stationary_quartic(p) -> np.ndarray:
    """The (5,) complex quartic in z = e^{i phi}, leading first, whose roots
    on the unit circle are the stationary points of delta-phi at point p:
    (c0, c1, c2, conj c1, conj c0) with c0 = m1 v1, c1 = 2 m1 v0 + 4 conj(m1) v2
    and c2 = 6 Re(m1 conj v1), from m1 and the v's each scaled to unit size."""
    _, m1, v0, v1, v2 = trig_coefficients(p)
    (m1,), (v0, v1, v2) = unit(m1), unit(v0, v1, v2)
    mc = m1.conjugate()
    return np.array([
        m1 * v1,
        2.0 * m1 * v0 + 4.0 * mc * v2,
        6.0 * (m1 * v1.conjugate()).real,
        4.0 * m1 * v2.conjugate() + 2.0 * mc * v0,
        mc * v1.conjugate(),
    ])


def companion_optimum(p):
    """(phi_opt, delta_phi_min) at point p from the angles of the quartic's
    roots by ``np.roots``, folded by pi, and the two bracket ends; None
    where no phase is informative.  Terms below 1e-15 of the largest are
    dropped, as the package once dropped them."""
    quartic = stationary_quartic(p)
    scale = np.abs(quartic).max()
    if scale > 0.0:
        quartic = np.where(np.abs(quartic) > 1e-15 * scale, quartic / scale, 0.0)
    roots = np.angle(np.roots(quartic)) % math.pi
    lo, hi = PHASE_BRACKET
    phis = np.concatenate(([lo, hi], roots[(roots >= lo) & (roots <= hi)]))
    curve = sensitivity_curve(p, phis)
    best = int(np.argmin(curve))
    return (float(phis[best]), float(curve[best])) if math.isfinite(curve[best]) else None
