"""Independent Gaussian-state reference for the analytic route.

Every state of the circuit is Gaussian: a coherent state and vacuum enter,
and the squeezers, the phase shift and the loss beam splitters are all
Gaussian maps.  So the mean vector and covariance matrix of the quadratures
carry every moment the metrology needs, and Isserlis' theorem gives the
photon-number variance.  This module shares no code with the package's
series, moments or metrology modules; the benchmark checks the package
against it.

Quadratures are ordered (q_a, q_b, p_a, p_b) with a = (q + i p) / sqrt(2),
so vacuum has covariance I / 2 and the homodyne observable is
X = a + a' = sqrt(2) q_a.  Gate conventions follow the package: the first
two-mode squeezer maps a -> cosh g a - sinh g b', the internal squeezer
a -> cosh r a + sinh r a', the phase shift a -> e^{-i phi} a, the second
two-mode squeezer (phase pi) a -> cosh g a + sinh g b', and loss t mixes
in vacuum as a -> sqrt(t) a + sqrt(1 - t) v.

All functions take equal-length parameter arrays and return arrays.
"""

from __future__ import annotations

import math

import numpy as np

SLOPE_FLOOR = 1e-12  # |d<X>/dphi| below this means no phase information
DEFAULT_BRACKET = (1e-3, math.pi - 1e-3)


def _as_arrays(*values):
    return np.broadcast_arrays(*(np.asarray(v) for v in values))


def internal_state(g, alpha, r):
    """Mean vector (n, 4) and covariance (n, 4, 4) of the internal state:
    coherent alpha and vacuum after the first two-mode squeezer and the
    squeezer r on arm a."""
    g, alpha, r = _as_arrays(g, alpha, r)
    g = g.astype(float).ravel()
    r = r.astype(float).ravel()
    alpha = alpha.astype(complex).ravel()
    n = g.size
    cg, sg = np.cosh(g), np.sinh(g)
    # two-mode squeezer, phase 0: q' = [[c, -s], [-s, c]] q, p' = [[c, s], [s, c]] p
    tms = np.zeros((n, 4, 4))
    tms[:, 0, 0] = tms[:, 1, 1] = tms[:, 2, 2] = tms[:, 3, 3] = cg
    tms[:, 0, 1] = tms[:, 1, 0] = -sg
    tms[:, 2, 3] = tms[:, 3, 2] = sg
    sq = np.zeros((n, 4, 4))
    sq[:, 0, 0] = np.exp(r)
    sq[:, 2, 2] = np.exp(-r)
    sq[:, 1, 1] = sq[:, 3, 3] = 1.0
    s1 = sq @ tms
    mean0 = np.zeros((n, 4))
    mean0[:, 0] = math.sqrt(2.0) * alpha.real
    mean0[:, 2] = math.sqrt(2.0) * alpha.imag
    mean = np.einsum("nij,nj->ni", s1, mean0)
    cov = 0.5 * s1 @ np.transpose(s1, (0, 2, 1))
    return mean, cov


def _mode_numbers(mean, cov, q, p):
    """<n> and Var(n) of one mode from its quadrature moments (Isserlis)."""
    vqq, vpp, vqp = cov[:, q, q], cov[:, p, p], cov[:, q, p]
    normal = 0.5 * (vqq + vpp - 1.0)  # <da' da>
    anomalous = 0.5 * (vqq - vpp) + 1j * vqp  # <da da>
    amp = (mean[:, q] + 1j * mean[:, p]) / math.sqrt(2.0)
    nbar = normal + np.abs(amp) ** 2
    var = (
        normal * (normal + 1.0)
        + np.abs(anomalous) ** 2
        + np.abs(amp) ** 2 * (2.0 * normal + 1.0)
        + 2.0 * np.real(np.conj(amp) ** 2 * anomalous)
    )
    return nbar, var


def photon_numbers(g, alpha, r):
    """(N, <n_a>, Var n_a) of the internal state."""
    mean, cov = internal_state(g, alpha, r)
    na, var_a = _mode_numbers(mean, cov, 0, 2)
    nb, _ = _mode_numbers(mean, cov, 1, 3)
    return na + nb, na, var_a


def _output_coefficients(g, alpha, r, t1, t2):
    """Per-row coefficients of <X>, Var X and d<X>/dphi as trig polynomials.

    With u = (cos phi, sin phi):
      <X>      = sqrt(2) (m_c cos + m_s sin + m_0)
      d<X>/dphi = sqrt(2) (-m_c sin + m_s cos)
      Var X    = 2 (v_cc cos^2 + 2 v_cs cos sin + v_ss sin^2 + v_c cos + v_s sin + v_0)
    """
    mean, cov = internal_state(g, alpha, r)
    g, t1, t2 = (a.astype(float).ravel() for a in _as_arrays(g, t1, t2))
    c, s = np.cosh(g), np.sinh(g)
    rt1 = np.sqrt(t1)
    # after phase and internal loss, q_a = rt1 (cos q_a + sin p_a) + noise;
    # second squeezer (phase pi) then q_a' = c q_a + s q_b; external loss t2
    k = np.sqrt(t2) * c * rt1
    m_c, m_s = k * mean[:, 0], k * mean[:, 2]
    m_0 = np.sqrt(t2) * s * mean[:, 1]
    w = t2 * c * c * t1
    v_cc, v_cs, v_ss = w * cov[:, 0, 0], w * cov[:, 0, 2], w * cov[:, 2, 2]
    x = 2.0 * t2 * c * s * rt1
    v_c, v_s = x * cov[:, 0, 1], x * cov[:, 2, 1]
    v_0 = t2 * c * c * (1.0 - t1) / 2.0 + t2 * s * s * cov[:, 1, 1] + (1.0 - t2) / 2.0
    return m_c, m_s, m_0, v_cc, v_cs, v_ss, v_c, v_s, v_0


def _evaluate(coeffs, phi):
    m_c, m_s, m_0, v_cc, v_cs, v_ss, v_c, v_s, v_0 = (
        a[..., None] if np.ndim(phi) == 2 else a for a in coeffs
    )
    cos, sin = np.cos(phi), np.sin(phi)
    root2 = math.sqrt(2.0)
    mean = root2 * (m_c * cos + m_s * sin + m_0)
    slope = root2 * (m_s * cos - m_c * sin)
    var = 2.0 * (
        v_cc * cos * cos + 2.0 * v_cs * cos * sin + v_ss * sin * sin
        + v_c * cos + v_s * sin + v_0
    )
    return mean, var, slope


def quadrature(g, alpha, r, t1, t2, phi):
    """(<X>, Var X, d<X>/dphi) at the output port, one value per row."""
    coeffs = _output_coefficients(g, alpha, r, t1, t2)
    return _evaluate(coeffs, np.asarray(phi, dtype=float).ravel())


def _curve(coeffs, phis):
    _, var, slope = _evaluate(coeffs, phis)
    out = np.full(var.shape, np.inf)
    ok = np.abs(slope) >= SLOPE_FLOOR
    out[ok] = np.sqrt(np.maximum(var[ok], 0.0)) / np.abs(slope[ok])
    return out


def _zoom(coeffs, centre, width, bracket, rounds=3, points=201):
    """Minimum near each row's centre phase by repeated local grids."""
    lo, hi = bracket
    best = np.full(centre.shape, np.inf)
    for _ in range(rounds):
        offsets = np.linspace(-1.0, 1.0, points)
        phis = np.clip(centre[:, None] + width * offsets[None, :], lo, hi)
        curve = _curve(coeffs, phis)
        k = np.argmin(curve, axis=1)
        rows = np.arange(centre.size)
        best = np.minimum(best, curve[rows, k])
        centre, width = phis[rows, k], width / 100.0
    return best


def min_sensitivity(g, alpha, r, t1, t2, bracket=DEFAULT_BRACKET, n_grid=10001, chunk=256):
    """(grid_min, refined_min) of delta-phi over the phase bracket, per row.

    grid_min is the minimum over a dense uniform grid (five times the
    package's default scan), so the true minimum is at most grid_min.
    refined_min zooms three times around every grid local minimum within
    1e-4 of grid_min, which brings it to the true minimum up to a
    negligible discretisation error.  Rows with no finite point come back
    as +inf for both.
    """
    coeffs = _output_coefficients(g, alpha, r, t1, t2)
    rows = coeffs[0].size
    phis = np.linspace(bracket[0], bracket[1], n_grid)
    grid_min = np.empty(rows)
    cand_rows, cand_phis = [], []
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        curve = _curve(tuple(a[start:stop] for a in coeffs),
                       np.broadcast_to(phis, (stop - start, n_grid)))
        grid_min[start:stop] = curve.min(axis=1)
        # local minima, counting only the left end of a plateau
        padded = np.pad(curve, ((0, 0), (1, 1)), constant_values=np.inf)
        local = (curve < padded[:, :-2]) & (curve <= padded[:, 2:])
        local &= curve <= grid_min[start:stop, None] * (1.0 + 1e-4)
        i, j = np.nonzero(local)
        cand_rows.append(start + i)
        cand_phis.append(phis[j])
    cand_rows = np.concatenate(cand_rows)
    cand_phis = np.concatenate(cand_phis)
    zoomed = _zoom(tuple(a[cand_rows] for a in coeffs), cand_phis, phis[1] - phis[0], bracket)
    refined = np.full(rows, np.inf)
    np.minimum.at(refined, cand_rows, zoomed)
    return grid_min, refined


def lossy_fisher(fisher, n_a, eta):
    """Optimised lossy Fisher information from F, <n_a> and eta."""
    fisher, n_a, eta = (np.asarray(a, dtype=float) for a in _as_arrays(fisher, n_a, eta))
    with np.errstate(divide="ignore", invalid="ignore"):
        fl = 4.0 * fisher * eta * n_a / ((1.0 - eta) * fisher + 4.0 * eta * n_a)
    fl = np.where(eta == 1.0, fisher, fl)
    return np.where(eta == 0.0, 0.0, fl)
