"""Recurrence moments of exp(w): examples, algebraic properties, and
agreement with the direct pairing sum."""

import math
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from su11lso.series import _ORDER, DEGREE_CAP, series_exp

from exponent_route import plan_loop

ZERO = (0, 0, 0, 0)


def exp_moments(linear=(0, 0, 0, 0), pairs=None):
    """series_exp of w with the given linear part and {(i, j): d2w/dlam_i dlam_j}."""
    pair = np.zeros((4, 4), dtype=complex)
    for (i, j), v in (pairs or {}).items():
        pair[i, j] = pair[j, i] = v
    return series_exp(np.asarray(linear, dtype=complex), pair)


def nonzero(moments):
    return {k: v for k, v in moments.items() if v != 0}


class TestExp:
    def test_single_variable(self):
        c = 0.5 - 0.25j  # dyadic: every power is exact
        out = nonzero(exp_moments(linear=(c, 0, 0, 0)))
        assert out == {(k, 0, 0, 0): c**k for k in range(DEGREE_CAP + 1)}

    def test_exp_of_zero(self):
        assert nonzero(exp_moments()) == {ZERO: 1}

    def test_quadratic_argument(self):
        # w = lam1 lam2: exp(w) = 1 + lam1 lam2 + (lam1 lam2)^2 / 2
        out = nonzero(exp_moments(pairs={(0, 1): 1.0}))
        assert out == {ZERO: 1, (1, 1, 0, 0): 1, (2, 2, 0, 0): 2}


class TestDerivative:
    def test_second_derivative(self):
        # w = 3 lam1^2
        assert exp_moments(pairs={(0, 0): 6.0})[(2, 0, 0, 0)] == 6

    def test_mixed_first_order(self):
        assert exp_moments(pairs={(0, 1): 1.0})[(1, 1, 0, 0)] == 1


coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
linears = st.lists(coeff, min_size=4, max_size=4)
# keys (i, j) with i <= j, one per symmetric pair
pair_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda ij: tuple(sorted(ij))),
    coeff,
    max_size=6,
)


def test_degree_cap_invariant_holds_after_arithmetic():
    out = exp_moments(linear=(1, 2, 3, 4), pairs={(0, 1): 1, (2, 3): 1})
    assert set(out) == {k for k in product(range(5), repeat=4) if sum(k) <= DEGREE_CAP}
    assert len(out) == 70


@given(linears, pair_terms)
@settings(max_examples=40, deadline=None)
def test_exp_constant_term_is_one(linear, pairs):
    assert exp_moments(linear, pairs)[ZERO] == 1


@given(linears, pair_terms, linears, pair_terms)
@settings(max_examples=60, deadline=None)
def test_exp_is_multiplicative(la, pa, lb, pb):
    """exp(a + b) = exp(a) exp(b): derivatives of the sum obey Leibniz's rule."""
    a, b = exp_moments(la, pa), exp_moments(lb, pb)
    pab = {k: pa.get(k, 0) + pb.get(k, 0) for k in set(pa) | set(pb)}
    lhs = exp_moments(np.add(la, lb), pab)
    for key, value in lhs.items():
        rhs = 0j
        for low in product(*(range(k + 1) for k in key)):
            high = tuple(k - j for k, j in zip(key, low))
            binom = math.prod(math.comb(k, j) for k, j in zip(key, low))
            rhs += binom * a[low] * b[high]
        assert abs(value - rhs) <= 1e-12 * max(1.0, abs(value), abs(rhs))


def pairing_sum(idx: tuple[int, ...], lin, pr) -> complex:
    """Sum over the partitions of ``idx`` into singletons and pairs.

    The direct Isserlis expansion, enumerating every pairing: the
    reference that series_exp's recurrence must reproduce.
    """
    if not idx:
        return 1.0 + 0j
    first, rest = idx[0], idx[1:]
    total = lin[first] * pairing_sum(rest, lin, pr)
    for k, other in enumerate(rest):
        total += pr[first][other] * pairing_sum(rest[:k] + rest[k + 1 :], lin, pr)
    return total


def indices(key):
    return tuple(i for i in range(4) for _ in range(key[i]))


# complex coefficients from 1e-3 to 1e3 in magnitude
spread = st.builds(
    lambda re, im, decade: complex(re, im) * 10.0**decade,
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.integers(-3, 3),
)


@given(st.lists(spread, min_size=4, max_size=4), st.lists(spread, min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_recurrence_matches_pairing_sum(linear, upper):
    pair = [[0j] * 4 for _ in range(4)]
    for (i, j), v in zip(((i, j) for i in range(4) for j in range(i, 4)), upper):
        pair[i][j] = pair[j][i] = v
    out = series_exp(linear, pair)
    abs_lin = [abs(v) for v in linear]
    abs_pair = [[abs(v) for v in row] for row in pair]
    for key, value in out.items():
        want = pairing_sum(indices(key), linear, pair)
        if sum(key) <= 2:
            # the same products in the same order
            assert value == want, key
        else:
            # rounding only: bounded by the size of the terms, not of the sum
            scale = pairing_sum(indices(key), abs_lin, abs_pair).real
            assert abs(value - want) <= 1e-13 * scale, key


# complex coefficients with each part a signed zero a third of the time
signed = st.builds(
    complex,
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
)


@given(st.lists(signed, min_size=4, max_size=4), st.lists(signed, min_size=10, max_size=10))
@settings(max_examples=300, deadline=None)
def test_straight_line_recurrence_equals_plan_loop(linear, upper):
    """The generated function does a loop over _PLAN's products and sums in
    its order: every moment has the loop's bits, signed zeros included."""
    pair = [[0j] * 4 for _ in range(4)]
    for (i, j), v in zip(((i, j) for i in range(4) for j in range(i, 4)), upper):
        pair[i][j] = pair[j][i] = v
    out = series_exp(linear, pair)
    assert list(out) == list(_ORDER)
    want = plan_loop(linear, pair)
    got = list(out.values())
    assert np.array(got).tobytes() == np.array(want).tobytes()
