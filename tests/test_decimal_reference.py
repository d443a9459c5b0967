"""The analytic route against its closed forms evaluated to 50 digits.

The reference uses only the standard library's ``decimal``: complex numbers
are pairs of ``Decimal``s, cosh and sinh come from ``Decimal.exp``, and cos
and sin from their Taylor series.  It calls no package code.  Each float
the package takes converts to a ``Decimal`` exactly, so the reference
evaluates the same point and phase, and a relative error is the package's
rounding alone.  Every bound is at most twice the worst error measured.
"""

import math
import random
from decimal import Decimal, localcontext

import pytest

from su11lso.metrology import optimal_phase, phase_sensitivity, qfi_ideal, qfi_lossy
from su11lso.metrology import total_photon_number
from su11lso.moments import InterferometerParams, _exponent_entries

DIGITS = 50


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _times(c, a):
    return (c * a[0], c * a[1])


def _conj(a):
    return (a[0], -a[1])


def _cosh_sinh(x):
    up, down = x.exp(), (-x).exp()
    return (up + down) / 2, (up - down) / 2


def _cos_sin(x):
    """cos x and sin x by their Taylor series, for |x| of a few units."""
    cos, sin, term, n = Decimal(0), Decimal(0), Decimal(1), 0
    tiny = Decimal(10) ** -(DIGITS + 5)
    while abs(term) > tiny or n < 2:
        if n % 2:
            sin += term if n % 4 == 1 else -term
        else:
            cos += term if n % 4 == 0 else -term
        n += 1
        term = term * x / n
    return cos, sin


def reference(g, alpha, r, t1, t2, phi, eta):
    """The exponent's nine entries, N, F, F_L and delta-phi of one point, as ``Decimal``s."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        g, r, t1, t2, phi, eta = map(Decimal, (g, r, t1, t2, phi, eta))
        a = (Decimal(alpha.real), Decimal(alpha.imag))
        cr, sr = _cosh_sinh(r)
        cg, sg = _cosh_sinh(g)
        l0 = _times(cg, _add(_times(cr, _conj(a)), _times(sr, a)))
        l1 = _times(cg, _add(_times(sr, _conj(a)), _times(cr, a)))
        l2, l3 = _times(-sg, a), _times(-sg, _conj(a))
        p00 = cr * sr * (1 + 2 * sg * sg)
        p01 = sr * sr + (cr * cr + sr * sr) * sg * sg
        p02, p03, p23 = -cr * cg * sg, -sr * cg * sg, sg * sg
        n_a = _mul(l0, l1)[0] + p01
        n_total = n_a + _mul(l2, l3)[0] + p23
        fisher = 4 * (
            p01 * (p01 + 1) + p00 * p00 + p00 * (_mul(l1, l1)[0] + _mul(l0, l0)[0])
            + (2 * p01 + 1) * _mul(l0, l1)[0]
        )
        fisher_lossy = 4 * fisher * eta * n_a / ((1 - eta) * fisher + 4 * eta * n_a)
        # the output quadrature X: sqrt(t1 t2) cosh g e^{-i phi} a + sqrt(t2) sinh g b' + noise
        amp_a, amp_b = (t1 * t2).sqrt() * cg, t2.sqrt() * sg
        z = _cos_sin(phi)
        m1z = _mul(_times(amp_a, l0), z)
        v1 = 2 * amp_a * amp_b * (p02 + p03)
        v2zz = _times(amp_a * amp_a * p00, _mul(z, z))
        variance = 1 + 2 * amp_a * amp_a * p01 + amp_b * amp_b * (2 * p23 + 2)
        variance += 2 * (v1 * z[0] + v2zz[0])
        slope = -2 * m1z[1]
        delta_phi = variance.sqrt() / abs(slope)
        return {
            "l0": l0, "l1": l1, "l2": l2, "l3": l3,
            "p00": p00, "p01": p01, "p02": p02, "p03": p03, "p23": p23,
            "N": n_total, "F": fisher, "F_L": fisher_lossy, "delta_phi": delta_phi,
        }


def _relative_error(got, want):
    """|got - want| / |want| of a float or complex against a Decimal or a
    pair of them; a zero reference takes an exact zero."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if isinstance(want, tuple):
            diff = (Decimal(got.real) - want[0], Decimal(got.imag) - want[1])
            size = (want[0] ** 2 + want[1] ** 2).sqrt()
            dist = (diff[0] ** 2 + diff[1] ** 2).sqrt()
        else:
            size, dist = abs(want), abs(Decimal(got) - want)
        if size == 0:
            return 0.0 if dist == 0 else math.inf
        return float(dist / size)


def _sample(count, seed):
    """Seeded points of the domain the command line accepts, each with a
    phase and an eta."""
    rng = random.Random(seed)
    return [
        dict(
            g=rng.uniform(0, 2), alpha=complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            r=rng.uniform(0, 1.5), t1=rng.uniform(0, 1), t2=rng.uniform(0, 1),
            phi=rng.uniform(0, math.pi), eta=rng.uniform(0, 1),
        )
        for _ in range(count)
    ]


# the worst relative error over the sample, measured on an AVX-512 x86-64
# host (Python 3.11, glibc libm), per quantity: each bound is at most twice it
MEASURED = {
    "l0": 1.5e-15, "l1": 1.5e-15, "l2": 2.6e-16, "l3": 2.6e-16,
    "p00": 5.8e-16, "p01": 6.2e-16, "p02": 4.3e-16, "p03": 5.0e-16, "p23": 4.1e-16,
    "N": 6.6e-16, "F": 8.3e-16, "F_L": 8.6e-16, "delta_phi": 2.7e-14,
}
BOUND = {name: 1.5 * value for name, value in MEASURED.items()}


def _package(point):
    p = InterferometerParams(**{k: v for k, v in point.items() if k != "eta"})
    e = _exponent_entries(p.g, complex(p.alpha), p.r)
    got = dict(e._asdict())
    got["N"] = total_photon_number(p)
    got["F"] = qfi_ideal(p).fisher
    got["F_L"] = qfi_lossy(p, point["eta"]).fisher_lossy
    got["delta_phi"] = phase_sensitivity(p).delta_phi
    return got


def test_sample_within_measured_envelope():
    worst = dict.fromkeys(MEASURED, 0.0)
    for point in _sample(1000, 2024):
        want = reference(**point)
        for name, value in _package(point).items():
            worst[name] = max(worst[name], _relative_error(value, want[name]))
    over = {name: (worst[name], BOUND[name]) for name in BOUND if worst[name] > BOUND[name]}
    assert not over, over
    # not a vacuous pass: every quantity was compared, and rounded somewhere
    assert all(worst.values()), worst


# delta-phi at the package's optimal phase, alpha = 1 and no loss: the
# variance is O(e^{-2r}) read from O(e^{2r}) terms, so the error grows
# like e^{4r} times rounding.  The relative error measured at each cell
# (README's precision table); each bound is 1.5 times it.
OPTIMUM_CELLS = {
    (1.0, 2.0): 4.6e-15, (1.0, 5.0): 2.7e-11, (1.0, 8.0): 3.3e-9,
    (0.0, 2.0): 7.4e-14, (0.0, 5.0): 2.7e-8, (0.0, 8.0): 6.9e-4,
}


@pytest.mark.parametrize("g, r", sorted(OPTIMUM_CELLS))
def test_optimum_within_measured_envelope(g, r):
    p = InterferometerParams(g=g, alpha=1.0, r=r)
    result = optimal_phase(p)
    want = reference(g, 1.0 + 0j, r, 1.0, 1.0, result.phi_opt, 1.0)["delta_phi"]
    error = _relative_error(result.delta_phi_min, want)
    assert error <= 1.5 * OPTIMUM_CELLS[g, r], error
