"""Normally ordered moments of a Gaussian generating function.

For w(lam) = sum_i linear[i] lam_i + (1/2) sum_ij pair[i][j] lam_i lam_j in
four formal variables, every mixed derivative of exp(w) at the origin is a
sum over the ways to split its indices into singletons, each worth
linear[i], and pairs, each worth pair[i][j] (Isserlis' theorem; a loop
hafnian).  With at most four indices that is at most 10 products, so each
moment is exact up to rounding: nothing is truncated.
"""

from __future__ import annotations

from itertools import product

DEGREE_CAP = 4

# the 70 multi-indices (x1, y1, x2, y2) of total degree <= DEGREE_CAP
_KEYS = tuple(k for k in product(range(DEGREE_CAP + 1), repeat=4) if sum(k) <= DEGREE_CAP)


def series_exp(linear, pair) -> dict[tuple[int, int, int, int], complex]:
    """Every derivative of exp(w) at the origin up to total order DEGREE_CAP.

    ``linear`` holds the first derivatives of w and ``pair`` (symmetric 4x4)
    its second derivatives; the result maps each multi-index to its moment.
    """
    lin = [complex(v) for v in linear]
    pr = [[complex(v) for v in row] for row in pair]
    return {
        key: _pairing_sum(tuple(i for i in range(4) for _ in range(key[i])), lin, pr)
        for key in _KEYS
    }


def _pairing_sum(idx: tuple[int, ...], lin: list, pr: list) -> complex:
    """Sum over the partitions of ``idx`` into singletons and pairs."""
    if not idx:
        return 1.0 + 0j
    first, rest = idx[0], idx[1:]
    total = lin[first] * _pairing_sum(rest, lin, pr)
    for k, other in enumerate(rest):
        total += pr[first][other] * _pairing_sum(rest[:k] + rest[k + 1 :], lin, pr)
    return total
