"""Normally ordered moments of a Gaussian generating function.

For w(lam) = sum_i linear[i] lam_i + (1/2) sum_ij pair[i][j] lam_i lam_j in
four formal variables, every mixed derivative M(k) of exp(w) at the origin
is a sum over the ways to split its indices into singletons, each worth
linear[i], and pairs, each worth pair[i][j] (Isserlis' theorem; a loop
hafnian).  Pairing the first index i of k with the rest, p = k - e_i, gives
the recurrence

    M(k) = linear[i] M(p) + sum_j p_j pair[i][j] M(p - e_j),

so each moment is a few products of lower ones and nothing is truncated.
The order of evaluation and the lower moments each key reads are fixed
once at import (``_PLAN``), and the plan is written out as the source of
one straight-line function, compiled once (``_recurrence``): one line per
moment, the same products and sums in the same order as a loop over the
plan, so a build runs no loop and looks up no plan entry.
"""

from __future__ import annotations

from itertools import product

DEGREE_CAP = 4


def _compile_plan():
    """Keys in order of total degree, and per key after the first (the
    origin) the step (i, position of p, ((p_j, j, position of p - e_j), ...))."""
    # the 70 multi-indices (x1, y1, x2, y2) of total degree <= DEGREE_CAP
    keys = (k for k in product(range(DEGREE_CAP + 1), repeat=4) if sum(k) <= DEGREE_CAP)
    order = tuple(sorted(keys, key=sum))
    position = {key: n for n, key in enumerate(order)}
    steps = []
    for key in order[1:]:
        i = next(n for n, count in enumerate(key) if count)
        p = key[:i] + (key[i] - 1,) + key[i + 1 :]
        terms = tuple(
            (p[j], j, position[p[:j] + (p[j] - 1,) + p[j + 1 :]]) for j in range(4) if p[j]
        )
        steps.append((i, position[p], terms))
    return order, tuple(steps)


_ORDER, _PLAN = _compile_plan()


def _compile_recurrence(plan):
    """One function doing ``plan``'s products and sums, in its order, on
    locals: ``recurrence(lin, pr)`` returns the moments in key order."""
    lines = ["def recurrence(lin, pr):", "    l0, l1, l2, l3 = lin"]
    lines += [f"    p{i}0, p{i}1, p{i}2, p{i}3 = pr[{i}]" for i in range(4)]
    lines.append("    m0 = 1.0 + 0j")
    for n, (i, p, terms) in enumerate(plan, 1):
        # a count of 1 is not multiplied in, so degree <= 2 keys round
        # exactly as the pairing sum does
        sums = "".join(
            f" + p{i}{j} * m{q}" if count == 1 else f" + {count} * (p{i}{j} * m{q})"
            for count, j, q in terms
        )
        lines.append(f"    m{n} = l{i} * m{p}{sums}")
    lines.append(f"    return ({', '.join(f'm{n}' for n in range(len(plan) + 1))})")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["recurrence"]


_recurrence = _compile_recurrence(_PLAN)


def series_exp(linear, pair) -> dict[tuple[int, int, int, int], complex]:
    """Every derivative of exp(w) at the origin up to total order DEGREE_CAP.

    ``linear`` holds the first derivatives of w and ``pair`` (symmetric 4x4)
    its second derivatives; the result maps each multi-index to its moment.
    """
    lin = [complex(v) for v in linear]
    pr = [[complex(v) for v in row] for row in pair]
    return dict(zip(_ORDER, _recurrence(lin, pr)))
