"""Brute-force two-mode Fock-space oracle.

Simulates the circuit (two-mode squeezer, single-mode squeezer on arm a,
phase shift, internal/external loss, phase-flipped second two-mode
squeezer) with every state built in a truncated number basis, and measures
every quantity the analytic path computes, sharing none of its algebra.

Gates are exact matrix exponentials of the truncated generators.  Both
squeezers conserve a quantum number (n_a - n_b for the two-mode gate,
photon-number parity for the single-mode one), so each truncated generator
block-diagonalizes into real skew-symmetric tridiagonal chains, and the
exponential comes from symmetric-tridiagonal eigendecompositions of those
chains (``_apply_skew_exp``).  This is the same matrix exponential a dense
scaling-and-squaring routine would produce, but it scales to per-mode
cutoffs of several hundred, which strong squeezing genuinely demands: the
internal state reaches mean photon numbers ~25 with heavy super-Poissonian
tails.  The first squeezer factorizes only the sectors that carry weight:
the coherent input zeroes its amplitudes below 1e-32 in weight
(``build_input``), so about 20 chains run at alpha 0.5 instead of one per
amplitude that has not underflowed, some 240.  Each of those sectors holds
amplitude only at its first level, so it needs only that level's response,
which depends on the gain, the sector and the chain's length alone.  The
responses are memoized per process (``_chain_response``), and the second
squeezer's pair reads its chains from the same memo: engines share these
and nothing else, and since each is a pure function of its key, no result
depends on which engines ran before.

A pure state is a (d_a, d_b) complex array psi[n_a, n_b].  The prepared
state escalates its cutoffs (``auto_prepared_state``), checking the cell
budget before every probe and growing each failing mode along its
extrapolated occupation decay (``_predicted_dim``); it is the oracle's only
escalation.  The pure-state Fisher information is 4 Var(n_a) of the
prepared state (``SensitivityOracle.fisher_pure``).

The output is read in the Heisenberg picture.  The second squeezer is
Gaussian, so U2' a U2 = c a + s b' holds exactly, with (c, s) read off the
literal gate's chains through |0,0>, |1,0> and |0,1> (``_gate_pair``).
Loss and the phase act on mode a only: the adjoint loss channel keeps the
bands of n_a, a and a^2 (``_lossy_bands``, from the one amplitude routine
``_loss_amplitudes``), and the phase multiplies a and a^2 by e^{-i phi}
and e^{-2i phi}.  So <X>, <X^2> and the exact d<X>/dphi after the whole
circuit are fixed combinations of eight moments of the prepared state
(``SensitivityOracle._evaluate_at_dims``).  No density operator is ever
formed: the mixed-state Fisher information of a prepared state under loss
(``mixed_qfi_from_state``) needs only the Gram matrices K^H N^k K of its
Kraus family (``_loss_grams``), summed over the rows that carry weight, and
solved in G_0's numerical rank after a pivoted Cholesky.
The tests hold both to a literal density-operator construction at small
cutoffs.

The three heavy entry points, ``auto_prepared_state``,
``SensitivityOracle.quadrature_statistics`` and ``mixed_qfi_from_state``,
run with every loaded OpenBLAS set to one thread (``_one_blas_thread``)
and restore the earlier counts when they return or raise.  Their dense
products are small (a prep of a few hundred by a few dozen levels, Grams
of a few hundred Kraus orders), so a second BLAS thread costs more in
hand-off than it saves, and while it spins it slows the tridiagonal
eigensolver on the main thread.  On a 2-core host the default
``su11lso check`` took 1.1 s with two threads and 0.33 s with one.  One
thread also keeps every oracle value independent of the process's thread
count: a threaded GEMM splits its sums differently, which moved cells by
up to 4e-13.  Without OpenBLAS (or off Linux) the scope does nothing and
only the speed is lost.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpstrf

from .errors import InsufficientCutoffError, NonconvergedOracleError
from .moments import InterferometerParams

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

DEFAULT_TAIL_TOL = 1e-10
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
# BLAS thread scope


@functools.cache
def _openblas_thread_controls() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of every OpenBLAS in this process.

    Found once per process, on the first call, from the shared objects
    mapped into it (Linux only; elsewhere there are none).  numpy and scipy
    load theirs on import, before this module runs.
    """
    import ctypes  # only the oracle's entry points need it, not every importer

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return ()
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
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the body, or each call of a decorated function, with every
    loaded OpenBLAS on one thread.

    The earlier counts come back in a ``finally``, on return and on a
    raise.  The counts are process-global, so the scope is not meant for
    concurrent callers: one that leaves it restores counts the other still
    relies on.
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
    """(n_a, n_b) along the n_a - n_b = k chain of a d_a x d_b grid, and its couplings."""
    return _sector_chain(k, min(d_a - k, d_b) if k >= 0 else min(d_a, d_b + k))


def _sector_chain(k: int, length: int):
    """(n_a, n_b) of the first length levels of the n_a - n_b = k chain, and
    their couplings sqrt((n_a + 1)(n_b + 1))."""
    nb = np.arange(length) + max(-k, 0)
    na = nb + k
    coupling = np.sqrt((na[:-1] + 1.0) * (nb[:-1] + 1.0))
    return na, nb, coupling


@functools.lru_cache(maxsize=256)
def _chain_response(g: float, k: int, length: int) -> np.ndarray:
    """exp(A) e_0 on the length-level sector-k chain of the two-mode squeezer
    with signed gain g: the response to the chain's first level, read-only.

    A pure function of its key, computed by ``_apply_skew_exp`` on one BLAS
    thread whatever the caller's count, so a value does not depend on which
    call filled the memo.  An entry holds 16 B per level, and the oracle's
    chains have at most sqrt(max_dim) levels (1183 at DEFAULT_MAX_DIM,
    19 kB), so the 256 entries hold at most 4.8 MB at the default budget.
    The default ``su11lso check`` fills 323 keys, and the evictions cost
    it no extra miss.
    """
    _, _, coupling = _sector_chain(k, length)
    start = np.zeros((length, 1), dtype=complex)
    start[0] = 1.0
    with _one_blas_thread():
        response = _apply_skew_exp(-g * coupling, start)[:, 0]
    response.flags.writeable = False
    return response


def apply_two_mode_squeezer_batch(
    batch: np.ndarray, g: float, d_a: int, d_b: int
) -> np.ndarray:
    """exp(g ab - g a'b') applied to (d_a*d_b, C) column-stacked states.

    g is signed: g >= 0 is the first squeezer, -g its phase-flipped twin.
    The generator conserves n_a - n_b, so the transform runs in place one
    sector at a time, a chain with sub-diagonal -g * coupling
    (``_apply_skew_exp``); the input array is mutated and returned.
    Only the sectors that hold a nonzero row are visited: row n_a d_b + n_b
    lies in sector n_a - n_b.  A sector whose block holds amplitude only at
    its first level, as every sector of |alpha>|0> does, takes the memoized
    response of that level (``_chain_response``) times the amplitude.
    """
    if g == 0.0:
        return batch
    rows = np.flatnonzero(batch.any(axis=1))
    for k in np.unique(rows // d_b - rows % d_b).tolist():
        na, nb, coupling = _pair_sector_indices(d_a, d_b, k)
        flat = na * d_b + nb
        block = batch[flat]
        if block[1:].any():
            batch[flat] = _apply_skew_exp(-g * coupling, block)
        else:
            batch[flat] = _chain_response(g, k, len(flat))[:, None] * block[0]
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


def _loss_grams(sigma: np.ndarray, u: np.ndarray, k: int, total: float) -> np.ndarray:
    """Gram matrices G_j = K^H n_a^j K (j < k) of the Kraus vectors K_l = Pi_l psi.

    G_j[l, l'] is the sum over n of n^j u_l(n) u_l'(n) sigma[n+l, n+l'],
    from the upper triangle of sigma (``_mode_a_sigma``) and the loss
    family u (``_loss_family``); one real GEMM per diagonal offset.  The
    sum stops at the last row n where some order keeps a weight
    u_l(n)^2 sigma[n+l, n+l] above 1e-32 of the squared norm total, the cut
    of ``build_input``: sigma is positive semidefinite, so each term left
    out is at most n^j 1e-32 total in magnitude.
    """
    d, count = u.shape
    padded = np.zeros(d + count, dtype=complex)
    windows = sliding_window_view(padded, count)  # windows[n, l] = padded[n + l]
    padded[:d] = sigma.diagonal()
    weighty = np.flatnonzero((u**2 * windows[:d].real > 1e-32 * total).any(axis=1))
    end = weighty[-1] + 1 if weighty.size else 0
    # G_j[l, l + delta] pairs u_l(n) u_{l+delta}(n), zero from n = d - delta
    # on, with the delta-th diagonal of sigma read from n + l; the lower
    # triangles are the conjugates
    powers = np.arange(end, dtype=float) ** np.arange(float(k))[:, None]
    gram = np.zeros((k, count, count), dtype=complex)
    for delta in range(count):
        padded[: d - delta] = sigma.diagonal(delta)
        padded[d - delta : d] = 0.0
        rows, cols = count - delta, min(end, d - delta)
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


@_one_blas_thread()
def auto_prepared_state(
    alpha: complex,
    g: float,
    r: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> tuple[np.ndarray, CutoffDiagnostics]:
    """Internal state with per-mode cutoffs escalated until the top-layer
    masses and the norm deficit drop below tail_tol.

    (alpha, g, r) are checked as in InterferometerParams, which raises
    ValueError naming a bad one, and a tail_tol that is negative or not
    finite raises ValueError.  Each probe that fails a mode's tail grows
    that mode along its extrapolated decay (``_predicted_dim``, always
    upward, so the budget checked before every probe ends the escalation).
    A grid over max_dim, or for r > 0 a d_a over MAX_SQUEEZER_DIM (the
    single-mode squeezer's levels), raises NonconvergedOracleError before
    its probe runs; so does a norm deficit over tail_tol once the tails
    pass, which no larger grid recovers.
    """
    InterferometerParams(g=g, alpha=alpha, r=r)
    _check_tolerance("tail_tol", tail_tol)
    a = abs(alpha)
    start = a * a + 8.0 * a + 12.0  # a float: inf for a huge alpha, no OverflowError
    d_a, d_b = max(14, math.ceil(min(start, max_dim + 1.0))), 6
    diag = None
    while True:
        if d_a * d_b > max_dim:
            last = "start" if diag is None else f"next (after {diag})"
            raise NonconvergedOracleError(
                f"state preparation: {last} grid {d_a}x{d_b} exceeds dim budget {max_dim}"
            )
        if r != 0.0 and d_a > MAX_SQUEEZER_DIM:
            raise NonconvergedOracleError(
                f"state preparation: grid {d_a}x{d_b} needs a {d_a}-level single-mode "
                f"squeezer, over its bound {MAX_SQUEEZER_DIM}"
            )
        psi = prepared_state(alpha, g, r, d_a, d_b)
        diag = cutoff_check(psi, tail_tol)
        pass_a, pass_b = diag.top_mass_a <= tail_tol, diag.top_mass_b <= tail_tol
        if pass_a and pass_b:
            if not diag.norm_deficit <= tail_tol:
                raise NonconvergedOracleError(
                    f"state preparation: norm deficit {diag.norm_deficit:.3g} exceeds its "
                    f"budget {tail_tol:.3g} at grid {d_a}x{d_b}, and no larger grid "
                    f"recovers it: {diag}"
                )
            return psi, diag
        # the raw top-layer masses are tested, the decay-scaled ones steer growth
        marg_a, marg_b = _marginals(psi)
        if not pass_a:
            estimate = float(marg_a[-2:].sum()) * _beyond_cutoff_factor(marg_a)
            d_a = _predicted_dim(marg_a, tail_tol, d_a, estimate)
        if not pass_b:
            estimate = float(marg_b[-2:].sum()) * _beyond_cutoff_factor(marg_b)
            d_b = _predicted_dim(marg_b, tail_tol, d_b, estimate)


# ---------------------------------------------------------------------------
# output read-out


def _lossy_bands(t: float, d: int) -> list[np.ndarray]:
    """Bands of n_a (offset 0), a (offset 1) and a^2 (offset 2) on d levels
    after the adjoint loss channel of transmittance t.

    The adjoint channel sum_m Pi_m' M Pi_m keeps a band operator's offsets:
    Kraus order m adds u_m(i) u_m(i+o) M_o[i] at row i + m
    (``_loss_amplitudes``).  Row p reads only rows up to p, so truncating
    the levels leaves every entry exact.
    """
    n = np.arange(d, dtype=float)
    bands = (n, np.sqrt(n[1:]), np.sqrt(n[1:-1] * n[2:]))
    lossy = [np.zeros(len(band)) for band in bands]
    for m, u in enumerate(_loss_amplitudes(t, d)):
        for o, band in enumerate(bands):
            ln = d - m - o
            if ln > 0:
                lossy[o][m : m + ln] += u[:ln] * u[o : o + ln] * band[:ln]
    return lossy


def _loss_factors(t: float) -> tuple[float, float, float]:
    """(k_n, k_a, k_aa): the adjoint loss channel maps n_a, a and a^2 to
    k_n n_a, k_a a and k_aa a^2.

    Each factor is the lossy band's entry (``_lossy_bands``) on the lowest
    row where the operator is nonzero, over the operator's own entry there.
    """
    lossy_n, lossy_a, lossy_aa = _lossy_bands(t, 3)
    return float(lossy_n[1]), float(lossy_a[0]), float(lossy_aa[0] / math.sqrt(2.0))


def _gate_pair(g: float, max_dim: int) -> tuple[float, float]:
    """(c, s) of the phase-flipped second squeezer: U2' a U2 = c a + s b'.

    Read off the literal gate, exp(-g ab + g a'b') on the n_a - n_b chains
    through |0,0>, |1,0> and |0,1> (``_chain_response`` at gain -g):
    c = <U2 00|a|U2 10> and s = <U2 01|a|U2 00>.  The chains double from
    16 levels until c^2 - s^2 = 1 to 1e-13, each inside an L x L grid of at
    most max_dim cells; a pair that has not converged there raises
    NonconvergedOracleError.
    """
    length = 16
    while True:
        chains = []
        for k in (0, 1, -1):
            na, _, _ = _pair_sector_indices(length, length, k)
            chains.append((na, _chain_response(-g, k, len(na))))
        (na_00, u_00), (na_10, u_10), (_, u_01) = chains
        # a|j+1, j> = sqrt(j+1) |j, j> and a|j+1, j+1> = sqrt(j+1) |j, j+1>
        c = np.vdot(u_00[:-1], np.sqrt(na_10) * u_10).real
        s = np.vdot(u_01, np.sqrt(na_00[1:]) * u_00[1:]).real
        error = abs(c * c - s * s - 1.0)
        if error <= 1e-13:
            return float(c), float(s)
        longer = min(2 * length, math.isqrt(max_dim))
        if longer <= length:
            raise NonconvergedOracleError(
                f"second squeezer: {length}-level chains leave c^2 - s^2 - 1 = {error:.3g}, "
                f"and longer ones exceed dim budget {max_dim}"
            )
        length = longer


class SensitivityOracle:
    """Reusable output-port evaluator for one (alpha, g, r).

    Prepares the internal state once, a (d_a, d_b) array ``prep``, escalated
    to tail masses and a norm deficit of prep_tail_tol (default
    DEFAULT_TAIL_TOL) within max_dim cells.  Each measurement reads <X>,
    <X^2> and the exact d<X>/dphi at the output off that state
    (``quadrature_statistics``); ``su11lso.crosscheck`` forms Var X and
    delta-phi from them.  Engines share only the memoized two-mode chain
    responses (``_chain_response``), pure functions of their key, so a
    result does not depend on what ran before.  A prep_tail_tol that is
    negative or not finite raises ValueError naming it.
    """

    def __init__(
        self,
        alpha: complex,
        g: float,
        r: float,
        max_dim: int = DEFAULT_MAX_DIM,
        prep_tail_tol: float | None = None,
    ):
        if prep_tail_tol is not None:
            _check_tolerance("prep_tail_tol", prep_tail_tol)
        self.alpha = complex(alpha)
        self.g = float(g)
        self.r = float(r)
        self.max_dim = max_dim
        prep_tol = DEFAULT_TAIL_TOL if prep_tail_tol is None else prep_tail_tol
        self.prep, self.prep_diag = auto_prepared_state(alpha, g, r, prep_tol, max_dim)

    # -- pure-state quantities ----------------------------------------------

    def photon_number(self) -> float:
        na, _, nb = photon_number_stats(self.prep)
        return na + nb

    def fisher_pure(self) -> float:
        """4 Var(n_a) of the prep: the pure-state Fisher information."""
        na, na2, _ = photon_number_stats(self.prep)
        return 4.0 * (na2 - na * na)

    # -- lossy output statistics ----------------------------------------------

    @_one_blas_thread()
    def quadrature_statistics(
        self,
        groups: dict[float, tuple[float, ...]],
        phi_values: tuple[float, ...],
    ) -> dict[tuple[float, float, float], tuple[float, float, float]]:
        """{(t1, t2, phi): (<X>, <X^2>, d<X>/dphi)} at the output, for loss groups {t1: t2s}.

        The slope is the exact derivative of the model.  The second
        squeezer's pair (``_gate_pair``) and one read-out of the prep
        (``_evaluate_at_dims``) serve every group and phase.  Before either
        runs, no group, a group without t2, no phase, a t1 or t2 outside
        [0, 1] or a phase that is not finite raises ValueError naming it.
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
        pair = _gate_pair(self.g, self.max_dim)
        d_a, d_b = self.prep.shape
        return self._evaluate_at_dims(groups, pair, phi_values, d_a, d_b)

    def _evaluate_at_dims(self, groups, pair, phi_values, d_a, d_b):
        """Output statistics read off the (d_a, d_b) prep through the gate pair (c, s).

        In the Heisenberg picture external loss t2 scales n_a, a and a^2
        (``_loss_factors``), the second squeezer turns a into A = c a + s b',
        and internal loss t1 and the phase act on the prep's mode a.  So

            <X>   = 2 k_a Re<A>,    d<X>/dphi = 2 k_a c Im<a>,
            <X^2> = 2 k_aa Re<A^2> + 2 k_n <A'A> + <1>,

        with <A> = c<a> + s<b>*, <A^2> = c^2<a^2> + 2cs<ab'> + s^2<b^2>* and
        <A'A> = c^2<n_a> + 2cs Re<ab> + s^2(<n_b> + <1>).  The mode-a
        moments pair the prep's rows i and i + o through the t1-lossy band
        of offset o (``_lossy_bands``); a and a^2 take e^{-i phi} and
        e^{-2i phi}.  <1> is the prep's squared norm; a norm that is not
        finite raises NonconvergedOracleError.
        """
        psi = self.prep
        c, s = pair
        total = float(np.vdot(psi, psi).real)
        if not math.isfinite(total):
            raise NonconvergedOracleError(f"prepared state overflows at cutoff {d_a}x{d_b}")
        raise_b = np.sqrt(np.arange(1.0, d_b))  # b's band
        # mode-a correlations of offsets 0, 1, 2, then <ab> and <ab'> per row
        corr = [np.einsum("ib,ib->i", psi[: d_a - o].conj(), psi[o:]) for o in (0, 1, 2)]
        corr_ab = np.einsum("ib,ib->i", psi[:-1, :-1].conj(), raise_b * psi[1:, 1:])
        corr_abd = np.einsum("ib,ib->i", psi[:-1, 1:].conj(), raise_b * psi[1:, :-1])
        mean_b = np.vdot(psi[:, :-1], raise_b * psi[:, 1:])
        pair_b = np.vdot(psi[:, :-2], raise_b[:-1] * raise_b[1:] * psi[:, 2:])
        count_b = photon_number_stats(psi)[2]
        turn, turn2 = _phase_factors(np.array([1, 2]), phi_values)
        result = {}
        for t1, t2s in groups.items():
            lossy_n, lossy_a, lossy_aa = _lossy_bands(t1, d_a)
            mean_a = turn * (lossy_a @ corr[1])
            pair_a = turn2 * (lossy_aa @ corr[2])
            mean_ab = turn * (lossy_a @ corr_ab)
            mean_abd = turn * (lossy_a @ corr_abd)
            count_a = float((lossy_n @ corr[0]).real)
            mean_out = c * mean_a + s * np.conj(mean_b)
            pair_out = c * c * pair_a + 2.0 * c * s * mean_abd + s * s * np.conj(pair_b)
            count_out = c * c * count_a + 2.0 * c * s * mean_ab.real + s * s * (count_b + total)
            for t2 in t2s:
                k_n, k_a, k_aa = _loss_factors(t2)
                x = 2.0 * k_a * mean_out.real
                x2 = 2.0 * k_aa * pair_out.real + 2.0 * k_n * count_out + total
                dx = 2.0 * k_a * c * mean_a.imag
                for i, phi in enumerate(phi_values):
                    result[(t1, t2, phi)] = (float(x[i]), float(x2[i]), float(dx[i]))
        return result


# ---------------------------------------------------------------------------
# mixed-state Fisher information


@_one_blas_thread()
def mixed_qfi_from_state(psi: np.ndarray, eta: float, weight_tol: float = 1e-12) -> float:
    """Mixed-state Fisher information of a prepared state under loss eta.

    rho = K K^H for the Kraus vectors K = [Pi_0 psi, Pi_1 psi, ...], and
    d rho / d phi = -i [N, rho] with N = n_a.  Loss and N act on mode a
    only, so F depends on psi only through the Gram matrices
    G_k = K^H N^k K (k = 0, 1, 2), sums over n of
    n^k u_l(n) u_l'(n) sigma[n+l, n+l'] with the mode-a reduced matrix
    sigma = conj(Psi) Psi^T.

    G_0 is solved in its numerical rank k (64 of L = 211 at alpha 1, g 1,
    r 0.6 and eta 0.1).  A pivoted Cholesky (LAPACK zpstrf) stops at the
    first pivot below eps times G_0's largest diagonal entry, so every
    component it leaves out lies below (L - k) eps max(diag G_0) <=
    L eps lam_max.  The k pivoted columns of G_0, orthonormalized, span the
    rest, and the k x k eigenproblem of G_0 in that basis gives
    G_0 ~ V diag(lam) V^H with V orthonormal, L x k.  The components above
    L eps lam_max are kept whole, and with C = V^H G_1 V,

        F = 4 sum_i (V^H G_2 V)_ii - 8 sum_ij |C_ij|^2 / (lam_i + lam_j),

    the Braunstein-Caves form 4 tr(rho N^2) - 8 sum p_i p_j / (p_i + p_j)
    |N_ij|^2 of rho restricted to those components.  A Gram of rank 0 (a
    zero state) gives F = 0.  The Kraus count L stops once the neglected
    weight falls below weight_tol.  An eta outside [0, 1], or a weight_tol
    that is negative or not finite, raises ValueError.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    _check_tolerance("weight_tol", weight_tol)
    sigma = _mode_a_sigma(psi)
    total = float(np.vdot(psi, psi).real)
    u = _loss_family(sigma.diagonal().real, eta, total, weight_tol)
    gram = _loss_grams(sigma, u, 3, total)
    eps = np.finfo(float).eps
    _, piv, rank, _ = zpstrf(gram[0], tol=eps * gram[0].diagonal().real.max())
    if rank == 0:
        return 0.0
    basis = np.linalg.qr(gram[0][:, piv[:rank] - 1])[0]  # piv counts from 1
    lam, vec = np.linalg.eigh(basis.conj().T @ gram[0] @ basis)
    vec = basis @ vec
    keep = lam > u.shape[1] * eps * lam[-1]
    lam, vec = lam[keep], vec[:, keep]
    c = vec.conj().T @ gram[1] @ vec
    second = np.sum(vec.conj() * (gram[2] @ vec)).real
    return float(4.0 * second - 8.0 * np.sum(np.abs(c) ** 2 / (lam[:, None] + lam[None, :])))
