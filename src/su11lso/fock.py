"""Brute-force two-mode Fock-space oracle.

Simulates the full circuit (two-mode squeezer, single-mode squeezer on arm
a, phase shift, internal/external loss, phase-flipped second two-mode
squeezer) in a truncated number basis and measures every quantity the
analytic path computes, sharing none of its algebra.

Gates are exact matrix exponentials of the truncated generators.  Both
squeezers conserve a quantum number (n_a - n_b for the two-mode gate,
photon-number parity for the single-mode one), so each truncated generator
block-diagonalizes into real skew-symmetric tridiagonal chains, and the
exponential comes from symmetric-tridiagonal eigendecompositions of those
chains.  This is the same matrix exponential a dense scaling-and-squaring
routine would produce, but it scales to per-mode cutoffs of several
hundred, which strong squeezing genuinely demands: the internal state
reaches mean photon numbers ~25 with heavy super-Poissonian tails, and the
second squeezer roughly doubles that.  A two-mode gate factorizes only the
sectors that carry weight.  The coherent input zeroes its amplitudes below
1e-32 in weight (``build_input``), so the first squeezer skips their
sectors as all-zero: about 20 chains at alpha 0.5 instead of one per
amplitude that has not underflowed, some 240.

A pure state is a (d_a, d_b) complex array psi[n_a, n_b].  The prep and
the work grid escalate their cutoffs in one loop (``_escalate``), which
checks the cell budget before every probe and grows each failing mode
along its extrapolated occupation decay (``_predicted_dim``).  One sweep
per probe serves all internal-loss groups, and no call inherits a grid.
The pure-state Fisher information is 4 Var(n_a) of the prepared state
(``SensitivityOracle.fisher_pure``).

Two routes compute these exponentials, on purpose.  The two-mode sectors
carry most of the oracle's run time, so they use half-size factors of the
even/odd split (``_skew_exp_factors``).  The single-mode squeezer, which
prepares the state, uses the full eigendecomposition (``_apply_skew_exp``):
it keeps the prepared state unitary to about 1e-14, whereas the half-size
route rebuilds one set of singular vectors as M V / sigma, which loses
orthogonality at about cond(M) * eps and lifts the prep norm deficit by one
to two decades.  Near-singular two-mode chains (tiny gain) fall back to the
full route as well.

Loss is a Kraus map.  No evaluation materializes a density operator: the
post-loss state is a rank-L mixture of Kraus vectors, and the second
squeezer is swept one n_a - n_b sector at a time, so only a sector's worth
of those vectors and the mode-a correlations they leave behind are ever
held.  The sweep skips the lightest sectors while every loss group's
skipped weight stays within 1e-4 of the Kraus weight tolerance, inside the
norm-deficit budget the escalation already checks; on the acceptance
sub-grid of perfbench's validate workload that halves the factorizations.
Each column streams together with its phase derivative -i n_a x, so the
same sweep gives the exact slope of the truncated model.  One read-out
routine (``_quadrature_moments``) turns those correlations into
each column's <X>, <X^2> and d<X>/dphi: external loss acts on X and X^2
through the adjoint loss channel, which keeps their bands at offsets 0, 1
and 2.  Loss and the phase generator N = n_a act on mode a only, so
every Kraus family comes from one place: one amplitude routine
(``_loss_amplitudes``) and one stop rule give the family, and one builder
gives its L x L Gram matrices K^H N^k K from the d_a x d_a mode-a reduced
matrix.  The sweep's family is the orthogonal recombination that
diagonalizes G_0; the mixed-state Fisher information of a prepared state
under loss (``mixed_qfi_from_state``) needs only G_0, G_1 and G_2 and
never forms the Kraus vectors.  The tests hold both to a literal
density-operator construction at small cutoffs.

The second-squeezer sweep runs with every loaded OpenBLAS set to one
thread (``_one_blas_thread``), restored when the sweep returns or raises.
Its products are small (a sector of a few hundred rows times a few dozen
columns), so a second BLAS thread costs more in hand-off than it saves,
and while it spins it slows the tridiagonal eigensolver on the main
thread about twofold.  On a 2-core host the lossless group of the
(alpha 0.5, g 1, r 1) engine took 4.6 s wall and 4.6 s CPU on one thread
against 10.7 s and 19.8 s on two, with bit-identical results.  State
preparation and the mixed QFI keep the default count.  Without OpenBLAS
(or off Linux) the scope does nothing and only the speed is lost.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import zherk

from .errors import InsufficientCutoffError, NonconvergedOracleError
from .moments import InterferometerParams

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

DEFAULT_TAIL_TOL = 1e-10
# work-grid tolerance: a decay-scaled beyond-cutoff mass estimate; across
# the cross-check grid this maps to relative sensitivity errors within a
# factor ~14 of itself, keeping several times under the comparison tolerance
DEFAULT_WORK_ERR_TOL = 2e-8
DEFAULT_KRAUS_TOL = 1e-11
DEFAULT_MAX_DIM = 1_400_000
# the state preparation's single-mode squeezer (r > 0) eigendecomposes its two
# parity chains of d_a / 2 levels, about 6 bytes per d_a^2 cell at its peak:
# 0.1 GB at this bound, twice the paper's largest preparation (1985 at
# alpha 2, g 1.5, r 1); the bound stops a runaway escalation of mode a
MAX_SQUEEZER_DIM = 4096


# ---------------------------------------------------------------------------
# cutoff diagnostics


@dataclass(frozen=True)
class CutoffDiagnostics:
    """Convergence evidence for a truncated state."""

    norm_deficit: float
    top_mass_a: float
    top_mass_b: float
    tolerance: float

    @property
    def converged(self) -> bool:
        return max(self.norm_deficit, self.top_mass_a, self.top_mass_b) <= self.tolerance


# ---------------------------------------------------------------------------
# skew-tridiagonal exponentials (the gate engine)


def _apply_skew_exp(sub: np.ndarray, block: np.ndarray) -> np.ndarray:
    """exp(A) @ block for real skew-symmetric tridiagonal A.

    A has A[j+1, j] = sub[j], A[j, j+1] = -sub[j].  Conjugating by
    D = diag(i^j) turns A into -i S with S real symmetric tridiagonal
    (off-diagonal sub), so exp(A) = D V exp(-i L) V^T D^{-1}.
    """
    s = block.shape[0]
    if s == 1 or not np.any(sub):
        return block.copy()
    lam, vec = eigh_tridiagonal(np.zeros(s), sub)
    d = _I_POW[np.arange(s) % 4]
    t = _mul_real(vec.T, d.conj()[:, None] * block)
    t *= np.exp(-1j * lam)[:, None]
    return d[:, None] * _mul_real(vec, t)


def _pair_sector_indices(d_a: int, d_b: int, k: int):
    """(n_a, n_b) along the n_a - n_b = k chain, and its couplings."""
    s = min(d_a - k, d_b) if k >= 0 else min(d_a, d_b + k)
    nb = np.arange(s) + max(-k, 0)
    na = nb + k
    coupling = np.sqrt((na[:-1] + 1.0) * (nb[:-1] + 1.0))
    return na, nb, coupling


def _skew_exp_factors(sub: np.ndarray):
    """Half-spectrum factors of exp(-i S), S zero-diagonal tridiagonal.

    The even/odd index permutation maps S to [[0, M], [M^T, 0]] with M
    lower bidiagonal, whose singular triplets give the +-sigma eigenpairs
    of S; sigma^2 and the right vectors come from the half-size tridiagonal
    M^T M, the left vectors from U = M V / sigma, plus one exact null mode
    on the even block when the chain length is odd.  Returns
    (sigma, U, V, w_null_or_None); the caller applies

        x_even' = U (cos A - i sin B) + w (w . x_even)
        x_odd'  = V (cos B - i sin A)

    with A = U^T x_even, B = V^T x_odd.  Falls back to None when the
    smallest sigma is too small for the stable back-substitution.
    """
    s = len(sub) + 1
    q = s // 2
    diag_m = sub[0::2]
    sub_m = sub[1::2]
    d = diag_m**2
    if len(sub_m) > 0:
        d[: len(sub_m)] += sub_m**2
    off = sub_m[: q - 1] * diag_m[1:q]
    if q == 1:
        sig2 = d
        v = np.ones((1, 1))
    else:
        sig2, v = eigh_tridiagonal(d, off)
    sigma = np.sqrt(np.clip(sig2, 0.0, None))
    if sigma.size and sigma.min() < 1e-8 * max(1.0, float(sigma.max())):
        return None
    p = s - q
    mv = np.zeros((p, q))
    mv[:q] = diag_m[:, None] * v
    if len(sub_m):
        mv[1 : len(sub_m) + 1] += sub_m[:, None] * v[: len(sub_m)]
    u = mv / sigma[None, :]
    w = None
    if p > q:
        w = np.ones(p)
        w[1:] = np.cumprod(-diag_m / sub_m)
        w /= np.linalg.norm(w)
    return sigma, u, v, w


def _apply_split_factors(x: np.ndarray, factors) -> np.ndarray:
    """exp(-i S) applied to (s, C) columns using half-spectrum factors."""
    sigma, u, v, w = factors
    xe = x[0::2]
    xo = x[1::2]
    a = _mul_real(u.T, xe)
    b = _mul_real(v.T, xo)
    cos_s = np.cos(sigma)[:, None]
    sin_s = np.sin(sigma)[:, None]
    out = np.empty_like(x)
    e_new = _mul_real(u, a * cos_s - 1j * (b * sin_s))
    if w is not None:
        e_new += np.outer(w, w @ xe)
    out[0::2] = e_new
    out[1::2] = _mul_real(v, b * cos_s - 1j * (a * sin_s))
    return out


def _sector_exp(x: np.ndarray, coupling: np.ndarray, g_signed: float) -> np.ndarray:
    """Two-mode squeezer on the (s, C) columns of one n_a - n_b chain.

    g_signed is g for the first squeezer, -g for the phase-flipped second
    one.  The chain generator is real skew-symmetric tridiagonal with
    sub-diagonal -g_signed * coupling, exponentiated through the
    half-spectrum factors of its even/odd split, or the full spectrum when
    the chain is near-singular.  x may be overwritten.
    """
    s = x.shape[0]
    if s == 1 or g_signed == 0.0:
        return x
    sub = -g_signed * coupling
    factors = _skew_exp_factors(sub)
    if factors is None:
        return _apply_skew_exp(sub, x)
    pattern = _I_POW[np.arange(s) % 4][:, None]
    x *= pattern.conj()
    x = _apply_split_factors(x, factors)
    x *= pattern
    return x


def apply_two_mode_squeezer_batch(
    batch: np.ndarray, g: float, d_a: int, d_b: int
) -> np.ndarray:
    """exp(g ab - g a'b') applied to (d_a*d_b, C) column-stacked states.

    g is signed: g >= 0 is the first squeezer, -g its phase-flipped twin.
    The generator conserves n_a - n_b, so the transform runs in place one
    sector at a time (``_sector_exp``); the input array is mutated and
    returned.  All-zero sectors are skipped.
    """
    if g == 0.0:
        return batch
    for k in range(-(d_b - 1), d_a):
        na, nb, coupling = _pair_sector_indices(d_a, d_b, k)
        flat = na * d_b + nb
        x = batch[flat]
        if x.any():
            batch[flat] = _sector_exp(x, coupling, g)
    return batch


def _mul_real(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x for real v and complex 2-D x: one real GEMM on x's float view.

    x's real and imaginary parts interleave along its rows; half ZGEMM's flops.
    """
    return (v @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)


# ---------------------------------------------------------------------------
# gates on states


def build_input(alpha: complex, cutoff_a: int, cutoff_b: int) -> np.ndarray:
    """|alpha>_a |0>_b as a (cutoff_a, cutoff_b) array; rejects leaky cutoffs.

    Raises InsufficientCutoffError unless the coherent tail beyond the
    cutoff is below 1e-12.  Amplitudes whose squared magnitude is below
    1e-32 are set to zero, so the first squeezer skips their sectors as
    all-zero: each holds under 1e-32 of the weight, and together they move
    the prepared state at rounding level only.
    """
    alpha = complex(alpha)
    nbar = abs(alpha) ** 2
    amps = np.zeros(cutoff_a, dtype=complex)
    amps[0] = math.exp(-0.5 * nbar)
    for n in range(1, cutoff_a):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    weights = np.abs(amps) ** 2
    tail = 1.0 - float(np.sum(weights))
    if tail > 1e-12:
        raise InsufficientCutoffError(
            f"coherent tail mass {tail:.2e} beyond cutoff {cutoff_a} exceeds 1e-12"
        )
    amps[weights < 1e-32] = 0.0
    psi = np.zeros((cutoff_a, cutoff_b), dtype=complex)
    psi[:, 0] = amps
    return psi


def apply_two_mode_squeezer(psi: np.ndarray, g: float) -> np.ndarray:
    """The first squeezer on a copy of the state."""
    d_a, d_b = psi.shape
    batch = psi.reshape(-1, 1).copy()
    return apply_two_mode_squeezer_batch(batch, g, d_a, d_b).reshape(d_a, d_b)


def apply_single_mode_squeezer(psi: np.ndarray, r: float) -> np.ndarray:
    """exp[(r/2)(a'^2 - a^2)] on mode a of a copy of the state.

    Parity is conserved, so the generator splits into two skew-symmetric
    tridiagonal chains over even and odd photon numbers; each acts on its
    rows of the state, and no d_a x d_a operator is formed.
    """
    out = psi.copy()
    for parity in (0, 1):
        n = np.arange(parity, psi.shape[0] - 2, 2)  # each level but the chain's last
        sub = 0.5 * r * np.sqrt((n + 1.0) * (n + 2.0))
        out[parity::2] = _apply_skew_exp(sub, psi[parity::2])
    return out


def _phase_factors(n: np.ndarray, phis) -> np.ndarray:
    """e^{-i phi n} for every n (rows) and phi (columns).

    Built as e^{i n theta} from the folded angle theta of e^{-i phi}: the
    product n phi would carry phi's rounding n-fold, which at phi ~ 1e12
    and n ~ 100 is already 0.016 rad.
    """
    theta = np.angle(np.exp(-1j * np.asarray(phis, dtype=float)))
    return np.exp(1j * np.multiply.outer(n, theta))


def _marginals(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Photon-number distributions (mode a, mode b) of a state."""
    dens = np.abs(psi) ** 2
    return np.sum(dens, axis=1), np.sum(dens, axis=0)


def photon_number_stats(psi: np.ndarray) -> tuple[float, float, float]:
    """(<n_a>, <n_a^2>, <n_b>) from the marginals."""
    pa, pb = _marginals(psi)
    na = np.arange(len(pa))
    nb = np.arange(len(pb))
    return float(pa @ na), float(pa @ na**2), float(pb @ nb)


# ---------------------------------------------------------------------------
# loss Kraus families


def _loss_amplitudes(t: float, d: int):
    """Yield the loss amplitudes u_m of Kraus orders m = 0, 1, ... on d levels.

    u_m(i) = sqrt((1-t)^m / m!) t^{i/2} sqrt((i+m)!/i!) for i < d - m, so
    Pi_m |i+m> = u_m(i) |i>.  Built in log space, where u_m^2 is a binomial
    probability and cannot overflow; stops once every entry is below 1e-160.
    At t = 1 only u_0 = 1 exists.
    """
    if t == 1.0:
        yield np.ones(d)
        return
    i = np.arange(d, dtype=float)
    if t > 0.0:
        log_damp = i * math.log(t)
    else:
        log_damp = np.where(i == 0, 0.0, -np.inf)
    log_fall = np.zeros(d)  # log((i+m)!/i!) as m grows
    log_fail = 0.0
    for m in range(d):
        if m > 0:
            log_fall = log_fall[:-1] + np.log(i[m:])
            log_fail += math.log(1.0 - t) - math.log(m)
        u = np.exp(0.5 * (log_fail + log_damp[: d - m] + log_fall))
        if not np.any(u > 1e-160):
            return
        yield u


def _loss_family(occupation: np.ndarray, t: float, total: float, weight_tol: float) -> np.ndarray:
    """Loss amplitudes of the Kraus orders a state needs, as columns u[n, l] = u_l(n).

    occupation is the state's mode-a photon-number distribution and total
    its squared norm.  Order l carries the weight sum_n u_l(n)^2
    occupation[n + l]; the family stops once the weight left out falls below
    weight_tol, or where no photons are left to lose.
    """
    d = len(occupation)
    amps = []
    accumulated = 0.0
    for l, amp in enumerate(_loss_amplitudes(t, d)):
        if l > 0 and not occupation[l:].any():
            break
        amps.append(amp)
        accumulated += float(amp**2 @ occupation[l:])
        if total - accumulated < weight_tol:
            break
    u = np.zeros((d, len(amps)))
    for l, amp in enumerate(amps):
        u[: d - l, l] = amp
    return u


def _mode_a_sigma(psi: np.ndarray) -> np.ndarray:
    """Upper triangle of the mode-a reduced matrix sigma = conj(psi) psi^T.

    One rank-k update, without copying psi.  A non-finite occupation raises
    NonconvergedOracleError.
    """
    sigma = zherk(1.0, psi.T, trans=2)
    if not np.isfinite(sigma.diagonal().real).all():
        d_a, d_b = psi.shape
        raise NonconvergedOracleError(f"mode-a reduced state overflows at cutoff {d_a}x{d_b}")
    return sigma


def _loss_grams(sigma: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """Gram matrices G_j = K^H n_a^j K (j < k) of the Kraus vectors K_l = Pi_l psi.

    G_j[l, l'] is the sum over n of n^j u_l(n) u_l'(n) sigma[n+l, n+l'],
    from the upper triangle of sigma (``_mode_a_sigma``) and the loss
    family u (``_loss_family``); one real GEMM per diagonal offset.
    """
    d, count = u.shape
    # G_j[l, l + delta] pairs u_l(n) u_{l+delta}(n), zero from n = d - delta
    # on, with the delta-th diagonal of sigma read from n + l; the lower
    # triangles are the conjugates
    powers = np.arange(d, dtype=float) ** np.arange(float(k))[:, None]
    gram = np.zeros((k, count, count), dtype=complex)
    padded = np.zeros(d + count, dtype=complex)
    windows = sliding_window_view(padded, count)  # windows[n, l] = padded[n + l]
    for delta in range(count):
        padded[: d - delta] = sigma.diagonal(delta)
        padded[d - delta : d] = 0.0
        rows, cols = count - delta, d - delta
        band = (u[:cols, :rows] * u[:cols, delta:]) * windows[:cols, :rows]
        upper = _mul_real(powers[:, :cols], band)
        idx = np.arange(rows)
        gram[:, idx, idx + delta] = upper
        gram[:, idx + delta, idx] = upper.conj()
    return gram


# ---------------------------------------------------------------------------
# state preparation


def cutoff_check(psi: np.ndarray, tolerance: float = DEFAULT_TAIL_TOL) -> CutoffDiagnostics:
    """Norm deficit plus occupation mass of the top two Fock layers."""
    deficit = abs(1.0 - float(np.vdot(psi, psi).real))
    pa, pb = _marginals(psi)
    la = min(2, len(pa) - 1)
    lb = min(2, len(pb) - 1)
    return CutoffDiagnostics(
        norm_deficit=deficit,
        top_mass_a=float(np.sum(pa[len(pa) - la :])),
        top_mass_b=float(np.sum(pb[len(pb) - lb :])),
        tolerance=tolerance,
    )


def prepared_state(
    alpha: complex, g: float, r: float, cutoff_a: int, cutoff_b: int
) -> np.ndarray:
    """Fixed-cutoff internal state: single-mode squeeze after the first squeezer."""
    psi = build_input(alpha, cutoff_a, cutoff_b)
    psi = apply_two_mode_squeezer(psi, g)
    return apply_single_mode_squeezer(psi, r)


def _check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and non-negative (zero is valid)."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def auto_prepared_state(
    alpha: complex,
    g: float,
    r: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> tuple[np.ndarray, CutoffDiagnostics]:
    """Internal state with per-mode cutoffs escalated (``_escalate``) until
    the top-layer masses and the norm deficit drop below tail_tol.

    (alpha, g, r) are checked as in InterferometerParams, which raises
    ValueError naming a bad one, and a tail_tol that is negative or not
    finite raises ValueError.  A grid over max_dim, or for r > 0 a d_a over
    MAX_SQUEEZER_DIM (the single-mode squeezer's levels), raises
    NonconvergedOracleError before its probe runs; so does a norm deficit
    over tail_tol once the tails pass.
    """
    InterferometerParams(g=g, alpha=alpha, r=r)
    _check_tolerance("tail_tol", tail_tol)
    a = abs(alpha)
    start = a * a + 8.0 * a + 12.0  # a float: inf for a huge alpha, no OverflowError

    def probe(d_a, d_b):
        if r != 0.0 and d_a > MAX_SQUEEZER_DIM:
            raise NonconvergedOracleError(
                f"state preparation: grid {d_a}x{d_b} needs a {d_a}-level single-mode "
                f"squeezer, over its bound {MAX_SQUEEZER_DIM}"
            )
        psi = prepared_state(alpha, g, r, d_a, d_b)
        # the raw top-layer masses are tested, the decay-scaled ones steer growth
        marginals = _marginals(psi)
        estimates = [float(m[-2:].sum()) * _beyond_cutoff_factor(m) for m in marginals]
        return psi, cutoff_check(psi, tail_tol), marginals, estimates

    dims = (max(14, math.ceil(min(start, max_dim + 1.0))), 6)
    psi, diag, _ = _escalate(probe, dims, tail_tol, max_dim, "state preparation")
    return psi, diag


# ---------------------------------------------------------------------------
# quadrature read-out after external loss


def _quadrature_moments(corr, t2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column <X>, <X^2> and d<X>/dphi, X = a + a', after external loss t2 on mode a.

    corr[o][i, c] = Re sum_b conj(x[i,b,c]) x[i+o,b,c] for o = 0, 1, 2, and
    corr[3] is the phase derivative of corr[1].  X has the band
    X_1[i] = sqrt(i+1) and X^2, the truncated-space square of X, the bands
    X^2_0 and X^2_2; both are real symmetric, so each -o band pairs with
    the +o one into 2 corr[o].  The adjoint loss channel
    sum_m Pi_m' M Pi_m keeps the bands: Kraus order m adds
    u_m(i) u_m(i+o) M_o[i] at row i + m (``_loss_amplitudes``).  The slope
    reads corr[3] through the same lossy band as the mean.
    """
    d = len(corr[0])
    n = np.arange(d, dtype=float)
    # squaring the truncated X shaves the (cut) a a' term off the top
    # diagonal entry; it only matters when top levels are populated, which
    # the convergence checks exclude
    diag = 2.0 * n + 1.0
    diag[d - 1] = d - 1.0
    bands = (diag, np.sqrt(n[1:]), np.sqrt((n[: d - 2] + 1.0) * (n[: d - 2] + 2.0)))
    lossy = [np.zeros(d - o) for o in (0, 1, 2)]
    for m, u in enumerate(_loss_amplitudes(t2, d)):
        for o, band in enumerate(bands):
            ln = d - m - o
            if ln > 0:
                lossy[o][m : m + ln] += u[:ln] * u[o : o + ln] * band[:ln]
    odd = 2.0 * lossy[1]
    return odd @ corr[1], lossy[0] @ corr[0] + 2.0 * (lossy[2] @ corr[2]), odd @ corr[3]


# ---------------------------------------------------------------------------
# work-grid escalation


def _tail_slope(marginal: np.ndarray) -> float | None:
    """Log-decay per level of the occupation tail, or None without a clean fit."""
    m = np.asarray(marginal, dtype=float)
    i0 = max(int(0.65 * len(m)), 1)
    window = m[i0:]
    if len(window) < 6 or np.any(window <= 0.0):
        return None
    slope = float(np.polyfit(np.arange(len(window)), np.log(window), 1)[0])
    if slope > -1e-3:
        return None
    return slope


def _beyond_cutoff_factor(marginal: np.ndarray) -> float:
    """Estimated ratio of beyond-cutoff mass to top-layer mass.

    A geometric tail with per-level ratio q carries q/(1-q) of its top-layer
    mass beyond the cutoff; heavy squeezed tails (q near 1) make the raw
    top-layer mass a severe underestimate of what truncation discards.
    """
    slope = _tail_slope(marginal)
    if slope is None:
        return 1.0 if float(np.asarray(marginal)[-2:].sum()) <= 0.0 else 200.0
    q = math.exp(slope)
    return min(max(q / (1.0 - q), 1.0), 200.0)


def _predicted_dim(marginal: np.ndarray, tol: float, current: int, estimate: float) -> int:
    """Extrapolate the cutoff at which the convergence estimate reaches tol.

    Fits the exponential decay of the occupation tail over its top stretch;
    falls back to a fixed growth factor when no clean decay is visible, or
    when tol is zero and no cutoff reaches it.  ``estimate`` is the current
    value of the decay-scaled beyond-cutoff mass.  The result always
    exceeds ``current``.
    """
    fallback = int(current * 1.45) + 8
    slope = _tail_slope(marginal)
    if estimate <= 0.0 or slope is None or tol == 0.0:
        return fallback
    extra = (math.log(estimate) - math.log(0.45 * tol)) / (-slope)
    # mild overshoot: amplified states need headroom
    target = int((current + math.ceil(extra) + 8) * 1.06)
    target = min(target, int(current * 2.6) + 16)
    return max(target, int(current * 1.15) + 4)


def _escalate(probe, dims: tuple[int, int], norm_budget: float, max_dim: int, what: str):
    """Probe growing (d_a, d_b) grids until both tails pass; (result, diag, dims).

    probe(d_a, d_b) returns (result, diag, marginals, estimates): the
    CutoffDiagnostics whose top masses are tested against its tolerance,
    and per mode the marginal and beyond-cutoff estimate that a failing
    mode grows from (``_predicted_dim``, always upward, so the budget
    checked before every probe ends every escalation).  Once the tails
    pass, a norm deficit over norm_budget raises: no larger grid recovers it.
    """
    d_a, d_b = dims
    diag = None
    while True:
        if d_a * d_b > max_dim:
            last = "start" if diag is None else f"next (after {diag})"
            raise NonconvergedOracleError(
                f"{what}: {last} grid {d_a}x{d_b} exceeds dim budget {max_dim}"
            )
        result, diag, (marg_a, marg_b), (est_a, est_b) = probe(d_a, d_b)
        tol = diag.tolerance
        if diag.top_mass_a <= tol and diag.top_mass_b <= tol:
            if not diag.norm_deficit <= norm_budget:
                raise NonconvergedOracleError(
                    f"{what}: norm deficit {diag.norm_deficit:.3g} exceeds its budget "
                    f"{norm_budget:.3g} at grid {d_a}x{d_b}, and no larger grid "
                    f"recovers it: {diag}"
                )
            return result, diag, (d_a, d_b)
        if not diag.top_mass_a <= tol:
            d_a = _predicted_dim(marg_a, tol, d_a, est_a)
        if not diag.top_mass_b <= tol:
            d_b = _predicted_dim(marg_b, tol, d_b, est_b)


# ---------------------------------------------------------------------------
# BLAS thread scope

def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS in this process.

    Found afresh on each call from the shared objects mapped into the
    process (Linux only; elsewhere the list is empty).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's 64-bit-index scipy-openblas, scipy's 32-bit one, a plain OpenBLAS
        for get_name, set_name in (
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ):
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Run the body, or each call of a decorated function, with every
    loaded OpenBLAS on one thread.

    The libraries are found on entry and their earlier counts come back in
    a ``finally``.  The counts are process-global, so the scope is not
    meant for concurrent callers.
    """
    saved = []
    try:
        for get, set_ in _openblas_thread_controls():
            saved.append((set_, get()))
            set_(1)
        yield
    finally:
        for set_, count in saved:
            set_(count)


# ---------------------------------------------------------------------------
# sensitivity oracle


def _swept_sectors(weights: np.ndarray, budget: float) -> np.ndarray:
    """Mask of the sectors worth sweeping, from their (groups, sectors) weights.

    The lightest sectors, taken in the order of their largest weight in any
    group, are left out for as long as every group's left-out weight stays
    within budget; all-zero sectors are left out at any budget.
    """
    order = np.argsort(weights.max(axis=0), kind="stable")
    within = np.all(np.cumsum(weights[:, order], axis=1) <= budget, axis=0)
    swept = np.ones(weights.shape[1], dtype=bool)
    swept[order[: np.count_nonzero(within)]] = False
    return swept


class SensitivityOracle:
    """Reusable output-port evaluator for one (alpha, g, r).

    Prepares the internal state once, a (d_a, d_b) array ``prep``.  Each
    measurement phases it, expands internal loss into Kraus columns,
    streams every column through the second squeezer one conserved sector
    at a time together with its phase derivative, and reads <X>, <X^2> and
    the exact d<X>/dphi after external loss off the mode-a correlations
    (``_quadrature_moments``); ``su11lso.crosscheck`` forms Var X and
    delta-phi from them.  One call sweeps all loss groups on one work grid;
    it escalates until the estimated relative moment error of the worst
    (group, phase) block drops below tail_tol, which is where the post-gate
    amplification bites.  Escalation starts from a grid around the prep
    (``_start_dims``) and only grows it; calls and engines share no state,
    so a result does not depend on what ran before.  A tolerance that is
    negative or not finite raises ValueError naming it.
    """

    def __init__(
        self,
        alpha: complex,
        g: float,
        r: float,
        tail_tol: float = DEFAULT_WORK_ERR_TOL,
        kraus_tol: float = DEFAULT_KRAUS_TOL,
        max_dim: int = DEFAULT_MAX_DIM,
        prep_tail_tol: float | None = None,
    ):
        _check_tolerance("tail_tol", tail_tol)
        _check_tolerance("kraus_tol", kraus_tol)
        if prep_tail_tol is not None:
            _check_tolerance("prep_tail_tol", prep_tail_tol)
        self.alpha = complex(alpha)
        self.g = float(g)
        self.r = float(r)
        self.tail_tol = tail_tol
        self.kraus_tol = kraus_tol
        self.max_dim = max_dim
        # the prep tolerance is a raw tail mass; photon-number moments lean
        # on the prep tails harder than the output quadratures do
        prep_tol = prep_tail_tol if prep_tail_tol is not None else min(tail_tol, DEFAULT_TAIL_TOL)
        self.prep, self.prep_diag = auto_prepared_state(alpha, g, r, prep_tol, max_dim)

    # -- pure-state quantities ----------------------------------------------

    def _kraus_rows_for(self, t1: float):
        """Compressed Kraus family of the unphased prep state, (columns, d_a*d_b).

        Phasing commutes with the loss Kraus family up to per-vector global
        phases, and padding commutes with both, so one family serves every
        phase and every work grid.  The family is heavily rank-deficient;
        the orthogonal recombination that diagonalizes its Gram matrix G_0
        represents the same mixture, and its leading components, up to the
        Kraus weight tolerance, cut the column count.  At t1 = 1 the family
        is the prep state itself.
        """
        psi = self.prep
        sigma = _mode_a_sigma(psi)
        total = float(np.vdot(psi, psi).real)
        u = _loss_family(sigma.diagonal().real, t1, total, self.kraus_tol)
        lam, mix = np.linalg.eigh(_loss_grams(sigma, u, 1)[0])
        lam = np.clip(lam[::-1], 0.0, None)
        mix = mix[:, ::-1]
        # keep the leading mixture components; the dropped weight obeys
        # the same budget as the dropped Kraus tail
        dropped_from = np.cumsum(lam[::-1])[::-1]
        keep = int(np.searchsorted(-dropped_from, -self.kraus_tol))
        keep = min(max(keep, 2), len(lam))
        # row j = sum_l mix[l, j] Pi_l psi, with Pi_l psi = u_l * psi[l:]
        d_a = psi.shape[0]
        rows = np.zeros((keep,) + psi.shape, dtype=complex)
        for l in range(u.shape[1]):
            kraus = u[: d_a - l, l, None] * psi[l:]
            rows[:, : d_a - l] += mix[l, :keep, None, None] * kraus
        return rows.reshape(keep, -1)

    def photon_number(self) -> float:
        na, _, nb = photon_number_stats(self.prep)
        return na + nb

    def fisher_pure(self) -> float:
        """4 Var(n_a) of the prep: the pure-state Fisher information."""
        na, na2, _ = photon_number_stats(self.prep)
        return 4.0 * (na2 - na * na)

    # -- lossy output statistics ----------------------------------------------

    def _start_dims(self, t1: float = 1.0) -> tuple[int, int]:
        """A grid around the prep.

        The grid is square, d_a0 + 2 d_b0 + 12 for a (d_a0, d_b0) prep, with
        mode a widened to cosh(g)^2 t1 d_a0 where that is larger and the
        budget allows: internal loss t1 scales mode a's photon number and
        the second squeezer multiplies it by up to cosh(g)^2.  Every
        g = 1, r > 0 engine of the check grid failed a square start probe
        at t1 = 1 and grew mode a 1.25 to 1.7 fold.
        """
        if self.g == 0.0:
            return self.prep.shape
        d_a0, d_b0 = self.prep.shape
        d = d_a0 + 2 * d_b0 + 12
        if d * d > self.max_dim:
            return d, d
        return max(d, min(math.ceil(math.cosh(self.g) ** 2 * t1 * d_a0), self.max_dim // d)), d

    @_one_blas_thread()
    def quadrature_statistics(
        self,
        groups: dict[float, tuple[float, ...]],
        phi_values: tuple[float, ...],
    ) -> dict[tuple[float, float, float], tuple[float, float, float]]:
        """{(t1, t2, phi): (<X>, <X^2>, d<X>/dphi)} at the output, for loss groups {t1: t2s}.

        The slope is the exact derivative of the truncated model.  One work
        grid and one sweep per probe serve every group, so each sector chain
        is factorized once for all of them.  It escalates (``_escalate``, one
        ``_evaluate_at_dims`` sweep per probe) from ``_start_dims`` of the
        largest t1 until the estimated relative second-moment error of the
        worst (group, phase) block passes; the norm deficit, the prep
        truncation plus the dropped Kraus weight and the skipped sectors'
        (``_evaluate_at_dims``), may reach four times the sum of the first
        two's bounds.  It all runs on one BLAS thread.  Before any probe, no
        group, a group without t2, no phase, a t1 or t2 outside [0, 1] or a
        phase that is not finite raises ValueError naming it.
        """
        if not groups:
            raise ValueError(f"groups must hold at least one loss group, got {groups!r}")
        for t1, t2s in groups.items():
            if not t2s:
                raise ValueError(f"loss group t1={t1!r} must hold at least one t2, got {t2s!r}")
            for name, t in [("t1", t1), *(("t2", t2) for t2 in t2s)]:
                if not 0.0 <= t <= 1.0:  # false for NaN too
                    raise ValueError(f"transmittance {name} must lie in [0, 1], got {t!r}")
        if len(phi_values) == 0:
            raise ValueError(f"phi_values must hold at least one phase, got {phi_values!r}")
        for phi in phi_values:
            if not math.isfinite(phi):
                raise ValueError(f"phase phi must be finite, got {phi!r}")
        kraus = [self._kraus_rows_for(t1) for t1 in groups]
        norm_budget = 4.0 * (self.kraus_tol + self.prep_diag.norm_deficit + 1e-13)
        result, _, _ = _escalate(
            lambda d_a, d_b: self._evaluate_at_dims(groups, kraus, phi_values, d_a, d_b),
            self._start_dims(max(groups)),
            norm_budget,
            self.max_dim,
            "output statistics",
        )
        return result

    def _evaluate_at_dims(self, groups, kraus, phi_values, d_a, d_b):
        """Output statistics at one work grid, streamed sector by sector.

        The second squeezer conserves n_a - n_b.  Each sector's columns,
        one per phase and Kraus vector (kraus: each group's rows), are filled
        from the prep grid (the chain's prefix inside it; the rest is zero)
        and joined by their phase derivatives -i n_a x, transformed in one
        pass, and folded into the mode-a correlations and mode-b marginals
        before the next sector.  Only the sectors that carry weight are
        swept: from each group's weight per sector on the prep grid, the
        lightest are skipped for as long as every group's skipped weight
        stays within 1e-4 kraus_tol (``_swept_sectors``).  That weight shows
        in the norm deficit, whose budget in ``quadrature_statistics`` is
        four times kraus_tol and more.  Offset-o correlations pair sector k
        with sector k - o at equal n_b, so only the last two outputs are
        kept; the offset-1 pairing also gives the phase derivative of
        corr[1].  Each (group, phase) block sums its own columns; diagnostics
        read the value columns only.  Returns a probe for ``_escalate``: the results, their
        diagnostics, the mean mode marginals, and the tested tails again as
        the growth estimates.
        """
        nphi = len(phi_values)
        d_a0, d_b0 = self.prep.shape
        bounds = np.cumsum([0] + [rows.shape[0] for rows in kraus])
        group_cols = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        width = bounds[-1]
        ncols = nphi * width
        # the Kraus vectors of the phased state are the phased Kraus vectors,
        # up to per-vector global phases that cancel in the quadratic forms
        base3t = [rows.reshape(-1, d_a0, d_b0).transpose(1, 2, 0) for rows in kraus]

        # offsets 0, 1, 2, then the phase derivative of offset 1
        corr = [np.zeros((d_a - o, ncols)) for o in (0, 1, 2, 1)]
        marg_b = np.zeros((d_b, ncols))
        # each group's weight per sector of the prep grid, sector k at k + d_b0 - 1
        sector_of = np.subtract.outer(np.arange(d_a0), np.arange(d_b0)).ravel() + d_b0 - 1
        weights = []
        for rows in kraus:
            parts = rows.view(np.float64)  # real and imaginary parts interleaved
            cells = np.einsum("ij,ij->j", parts, parts).reshape(-1, 2).sum(axis=1)
            weights.append(np.bincount(sector_of, cells, d_a0 + d_b0 - 1))
        swept = _swept_sectors(np.array(weights), 1e-4 * self.kraus_tol)
        kept = {}  # sector -> (its first n_b, its gate output, their derivative)
        for k in range(-(d_b0 - 1), d_a0):
            kept.pop(k - 3, None)
            if not swept[k + d_b0 - 1]:  # a light tail sector, or an odd one at alpha = 0
                continue
            na, nb, coupling = _pair_sector_indices(d_a, d_b, k)
            inside = min(d_a0 - na[0], d_b0 - nb[0])
            filled = np.concatenate([b3t[na[:inside], nb[:inside]] for b3t in base3t], axis=1)
            s = len(na)
            x = np.zeros((s, 2, nphi, width), dtype=complex)  # values, then d/dphi
            np.multiply(
                _phase_factors(na[:inside], phi_values)[:, :, None],
                filled[:, None, :],
                out=x[:inside, 0],
            )
            np.multiply(-1j * na[:inside, None, None], x[:inside, 0], out=x[:inside, 1])
            out = _sector_exp(x.reshape(s, -1), coupling, -self.g)  # the phase-flipped squeezer
            y, dy = out[:, :ncols], out[:, ncols:]
            dens = y.real**2 + y.imag**2
            corr[0][na[0] : na[0] + s] += dens
            marg_b[nb[0] : nb[0] + s] += dens
            for o in (1, 2):
                if k - o not in kept:
                    continue
                nb_lo, y_lo, dy_lo = kept[k - o]
                lo, hi = max(nb[0], nb_lo), min(nb[0] + s, nb_lo + len(y_lo))
                if lo < hi:
                    rows = slice(lo + k - o, hi + k - o)
                    a, da = y_lo[lo - nb_lo : hi - nb_lo], dy_lo[lo - nb_lo : hi - nb_lo]
                    b, db = y[lo - nb[0] : hi - nb[0]], dy[lo - nb[0] : hi - nb[0]]
                    corr[o][rows] += a.real * b.real + a.imag * b.imag
                    if o == 1:
                        corr[3][rows] += a.real * db.real + a.imag * db.imag
                        corr[3][rows] += da.real * b.real + da.imag * b.imag
            kept[k] = (nb[0], y, dy)

        def blocks(per_column):  # (group, phase) block sums, one block a row
            per_column = per_column.reshape(len(per_column), nphi, width)
            return np.concatenate([per_column[:, :, cols].sum(axis=2).T for cols in group_cols])

        moments = {t2: [blocks(v[None]) for v in _quadrature_moments(corr, t2)]
                   for t2 in set(itertools.chain.from_iterable(groups.values()))}
        result = {}
        for i, ((t1, t2s), phi) in enumerate(itertools.product(groups.items(), phi_values)):
            for t2 in t2s:
                result[(t1, t2, phi)] = tuple(float(m[i, 0]) for m in moments[t2])

        # convergence evidence: decay-scaled beyond-cutoff mass estimate of
        # the worst block; the decay factor matters because heavy squeezed
        # tails park most of the truncated mass past the top layers
        marg_a_blocks, marg_b_blocks = blocks(corr[0]), blocks(marg_b)
        marg_a = marg_a_blocks.mean(axis=0)
        marg_b = marg_b_blocks.mean(axis=0)
        diag = CutoffDiagnostics(
            norm_deficit=float(np.abs(1.0 - marg_a_blocks.sum(axis=1)).max()),
            top_mass_a=float(marg_a_blocks[:, -2:].sum(axis=1).max())
            * _beyond_cutoff_factor(marg_a),
            top_mass_b=float(marg_b_blocks[:, -2:].sum(axis=1).max())
            * _beyond_cutoff_factor(marg_b),
            tolerance=self.tail_tol,
        )
        return result, diag, (marg_a, marg_b), (diag.top_mass_a, diag.top_mass_b)


# ---------------------------------------------------------------------------
# mixed-state Fisher information


def mixed_qfi_from_state(psi: np.ndarray, eta: float, weight_tol: float = 1e-12) -> float:
    """Mixed-state Fisher information of a prepared state under loss eta.

    rho = K K^H for the Kraus vectors K = [Pi_0 psi, Pi_1 psi, ...], and
    d rho / d phi = -i [N, rho] with N = n_a.  Loss and N act on mode a
    only, so F depends on psi only through the Gram matrices
    G_k = K^H N^k K (k = 0, 1, 2), sums over n of
    n^k u_l(n) u_l'(n) sigma[n+l, n+l'] with the mode-a reduced matrix
    sigma = conj(Psi) Psi^T.  With G_0 = V diag(lam) V^H, the components
    above L eps lam_max are kept whole, and C = V^H G_1 V,

        F = 4 sum_i (V^H G_2 V)_ii - 8 sum_ij |C_ij|^2 / (lam_i + lam_j),

    the Braunstein-Caves form 4 tr(rho N^2) - 8 sum p_i p_j / (p_i + p_j)
    |N_ij|^2 of rho restricted to those components.  The Kraus count L
    stops once the neglected weight falls below weight_tol.  An eta outside
    [0, 1], or a weight_tol that is negative or not finite, raises ValueError.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    _check_tolerance("weight_tol", weight_tol)
    sigma = _mode_a_sigma(psi)
    total = float(np.vdot(psi, psi).real)
    u = _loss_family(sigma.diagonal().real, eta, total, weight_tol)
    gram = _loss_grams(sigma, u, 3)
    lam, vec = np.linalg.eigh(gram[0])
    keep = lam > u.shape[1] * np.finfo(float).eps * lam[-1]
    lam, vec = lam[keep], vec[:, keep]
    c = vec.conj().T @ gram[1] @ vec
    second = np.sum(vec.conj() * (gram[2] @ vec)).real
    return float(4.0 * second - 8.0 * np.sum(np.abs(c) ** 2 / (lam[:, None] + lam[None, :])))
