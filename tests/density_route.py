"""Literal density-operator route of the Fock oracle, for small cutoffs.

The oracle never forms a density operator; these helpers do, so tests can
check its Heisenberg read-out of the output quadrature and its mixed-state
Fisher information against the plain textbook construction.  Pure states
are the oracle's (d_a, d_b) arrays; ``pure_moment`` reads normally ordered
moments off them by explicit ladder applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# largest d_a*d_b for which the explicit density operator is formed
DENSITY_DIM_LIMIT = 4096


@dataclass
class FockDensityOperator:
    """Two-mode density operator at small cutoff."""

    cutoff_a: int
    cutoff_b: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.cutoff_a * self.cutoff_b
        if self.matrix.shape != (dim, dim):
            raise ValueError("density matrix does not match the cutoffs")

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def marginal_a(self) -> np.ndarray:
        diag = np.diag(self.matrix).real.reshape(self.cutoff_a, self.cutoff_b)
        return diag.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        diag = np.diag(self.matrix).real.reshape(self.cutoff_a, self.cutoff_b)
        return diag.sum(axis=0)


@dataclass(frozen=True)
class KrausChannel:
    """Photon-loss channel on one mode: Pi_l = sqrt((1-T)^l / l!) T^{n/2} a^l."""

    transmittance: float
    mode: str = "a"

    def __post_init__(self):
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError("transmittance must lie in [0, 1]")
        if self.mode not in ("a", "b"):
            raise ValueError("mode must be 'a' or 'b'")


def single_mode_kraus_matrices(t: float, d: int) -> list[np.ndarray]:
    """Dense single-mode loss Kraus operators Pi_l, l < d."""
    n = np.arange(d, dtype=float)
    damp = np.power(t, n / 2.0)
    a = np.zeros((d, d))
    a[np.arange(d - 1), np.arange(1, d)] = np.sqrt(np.arange(1.0, d))
    ops = []
    power = np.eye(d)  # sqrt((1-t)^l / l!) a^l
    for l in range(d):
        if l > 0:
            if t == 1.0:
                break
            power = math.sqrt((1.0 - t) / l) * (a @ power)
            if not power.any():
                break
        ops.append(damp[:, None] * power)
    return ops


def _lower_once(grid: np.ndarray, axis: int) -> np.ndarray:
    """Annihilation operator of one mode applied to a (possibly stacked) grid."""
    d = grid.shape[axis]
    shape = [1] * grid.ndim
    shape[axis] = d - 1
    factors = np.sqrt(np.arange(1.0, d)).reshape(shape)
    out = np.zeros_like(grid)
    src = [slice(None)] * grid.ndim
    dst = [slice(None)] * grid.ndim
    src[axis] = slice(1, None)
    dst[axis] = slice(0, d - 1)
    out[tuple(dst)] = factors * grid[tuple(src)]
    return out


def pure_moment(psi: np.ndarray, key) -> complex:
    """< a'^x1 a^y1 b'^x2 b^y2 > on a (d_a, d_b) pure state via ladder applications."""
    x1, y1, x2, y2 = (int(k) for k in key)
    right = psi
    for _ in range(y1):
        right = _lower_once(right, 0)
    for _ in range(y2):
        right = _lower_once(right, 1)
    left = psi
    for _ in range(x1):
        left = _lower_once(left, 0)
    for _ in range(x2):
        left = _lower_once(left, 1)
    return complex(np.vdot(left, right))


def loss_kraus_rows(
    psi: np.ndarray, transmittance: float, weight_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows Pi_l |psi> of the loss channel on mode a, stacked (L, dim), plus weights.

    The reference for the oracle's Kraus family: each row comes from the one
    before by a lowering step in linear space that carries its factor
    sqrt((1 - t) / l), so sqrt((1 - t)^l / l!) a^l |psi> stays bounded.
    Stops once the neglected Kraus weight falls below weight_tol; by channel
    completeness the weights sum to the squared norm of the input.
    """
    t = transmittance
    d = psi.shape[0]
    damp = np.power(t, np.arange(d) / 2.0)[:, None]
    lower = np.sqrt(np.arange(1.0, d))[:, None]
    total = float(np.vdot(psi, psi).real)
    rows, weights = [], []
    lowered = psi
    for l in range(d):
        if l > 0:
            if t == 1.0:
                break
            step = np.zeros_like(lowered)
            step[:-1] = math.sqrt((1.0 - t) / l) * lower * lowered[1:]
            lowered = step
            if not lowered.any():
                break
        rows.append((damp * lowered).reshape(-1))
        weights.append(float(np.vdot(rows[-1], rows[-1]).real))
        if total - sum(weights) < weight_tol:
            break
    return np.array(rows), np.array(weights)


def apply_loss(target, channel: KrausChannel) -> FockDensityOperator:
    """Loss channel on a (d_a, d_b) pure state or a density operator, as an
    explicit density operator."""
    da, db = target.shape if isinstance(target, np.ndarray) else (target.cutoff_a, target.cutoff_b)
    if da * db > DENSITY_DIM_LIMIT:
        raise ValueError(f"density-operator route is limited to dim <= {DENSITY_DIM_LIMIT}")
    if isinstance(target, np.ndarray):
        if channel.mode == "a":
            rows, _ = loss_kraus_rows(target, channel.transmittance, weight_tol=1e-16)
            return FockDensityOperator(da, db, rows.T @ rows.conj())
        flat = target.reshape(-1)
        target = FockDensityOperator(da, db, np.outer(flat, flat.conj()))
    kraus = single_mode_kraus_matrices(channel.transmittance, da if channel.mode == "a" else db)
    rho4 = target.matrix.reshape(da, db, da, db)
    out = np.zeros_like(rho4)
    for k in kraus:
        if channel.mode == "a":
            out += np.einsum("ij,jklm,nl->iknm", k, rho4, k.conj(), optimize=True)
        else:
            out += np.einsum("ij,kjlm,nm->kiln", k, rho4, k.conj(), optimize=True)
    return FockDensityOperator(da, db, out.reshape(da * db, da * db))


def density_quadrature_stats(rho: FockDensityOperator) -> tuple[float, float]:
    """(<X>, <X^2>) of a density operator, X = a + a' on mode a."""
    d_a, d_b = rho.cutoff_a, rho.cutoff_b
    x1 = np.zeros((d_a, d_a))
    x1[np.arange(d_a - 1), np.arange(1, d_a)] = np.sqrt(np.arange(1.0, d_a))
    x1 += x1.T
    x = np.kron(x1, np.eye(d_b))
    mean = float(np.trace(x @ rho.matrix).real)
    second = float(np.trace(x @ x @ rho.matrix).real)
    return mean, second
