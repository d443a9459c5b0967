"""The earlier exponent route, for bit-for-bit comparison with the package.

A table's exponent was a numpy 4x4 complex array filled entry by entry and
symmetrized by adding its transposed upper triangle; its pair part was
``2.0 * quadratic``, and the moments were a loop over ``series._PLAN``.
The package now builds the entries as Python numbers and runs the plan as
one generated straight-line function; these helpers keep the old route so
the tests can hold the new one to its bits.
"""

from __future__ import annotations

import math

import numpy as np

from su11lso.series import _PLAN


def numpy_fill_exponent(params):
    """(linear, quadratic) of (g, r, alpha) as (4,) and (4, 4) complex arrays."""
    cr, sr = math.cosh(params.r), math.sinh(params.r)
    cg, sg = math.cosh(params.g), math.sinh(params.g)
    alpha = complex(params.alpha)
    ac = alpha.conjugate()
    quad = np.zeros((4, 4), dtype=complex)
    quad[0, 0] = 0.5 * cr * sr + cr * sr * sg * sg
    quad[1, 1] = quad[0, 0]
    quad[0, 1] = 0.5 * (sr * sr + (cr * cr + sr * sr) * sg * sg)
    quad[0, 2] = 0.5 * (-cr * cg * sg)
    quad[0, 3] = 0.5 * (-sr * cg * sg)
    quad[1, 2] = 0.5 * (-sr * cg * sg)
    quad[1, 3] = 0.5 * (-cr * cg * sg)
    quad[2, 3] = 0.5 * (sg * sg)
    quad += np.triu(quad, 1).T
    lin = np.array(
        [ac * cr * cg + alpha * sr * cg, ac * sr * cg + alpha * cr * cg, -alpha * sg, -ac * sg],
        dtype=complex,
    )
    return lin, quad


def plan_loop(linear, pair) -> list[complex]:
    """The moments in ``series._ORDER``, by a loop over ``series._PLAN``."""
    lin = [complex(v) for v in linear]
    pr = [[complex(v) for v in row] for row in pair]
    m = [1.0 + 0j]
    for i, p, terms in _PLAN:
        row = pr[i]
        total = lin[i] * m[p]
        for count, j, q in terms:
            term = row[j] * m[q]
            total += term if count == 1 else count * term
        m.append(total)
    return m
