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
tails.  The first squeezer acts on |alpha>|0> only, so it takes only states
with amplitude at n_b = 0 (``apply_two_mode_squeezer_batch``): each held
amplitude |k, 0> is the first level of the n_a - n_b = k chain, and needs
only that level's response, which depends on the gain, the sector and the
chain's length alone.  The coherent input zeroes its amplitudes below
1e-32 in weight (``build_input``), so about 20 chains run at alpha 0.5
instead of one per amplitude that has not underflowed, some 240.  The
responses are memoized per process (``_chain_response``), and the second
squeezer's pair reads its chains from the same memo: engines share these
and nothing else, and since each is a pure function of its key, no result
depends on which engines ran before.

A pure state is a (d_a, d_b) complex array psi[n_a, n_b].  The prepared
state escalates its cutoffs (``auto_prepared_state``), checking the cell
budget before every probe and growing each failing mode along its
occupation decay, fitted once per failing tail (``_next_dim``); it is the
oracle's only escalation and convergence test.  The pure-state Fisher
information is 4 Var(n_a) of the prep (``SensitivityOracle.fisher_pure``).

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
Kraus family (``_loss_grams``), cut at 1e-12 of neglected weight, summed
over the rows that carry weight, and solved in G_0's numerical rank after
a pivoted Cholesky.  The tests hold both to a literal density-operator
construction at small cutoffs.

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
    """What ``cutoff_check`` measures of a truncated state."""

    norm_deficit: float
    top_mass_a: float
    top_mass_b: float


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


def _sector_chain(k: int, length: int):
    """n_a of the first length levels of the n_a - n_b = k chain, and their
    couplings sqrt((n_a + 1)(n_b + 1))."""
    nb = np.arange(length) + max(-k, 0)
    na = nb + k
    coupling = np.sqrt((na[:-1] + 1.0) * (nb[:-1] + 1.0))
    return na, coupling


@functools.lru_cache(maxsize=256)
def _chain_response(g: float, k: int, length: int) -> np.ndarray:
    """exp(A) e_0 on the length-level sector-k chain of the two-mode squeezer
    with signed gain g: the response to the chain's first level, read-only.

    A pure function of its key, computed by ``_apply_skew_exp`` on one BLAS
    thread whatever the caller's count, so a value does not depend on which
    call filled the memo.  An entry holds 16 B per level.  The second
    squeezer's chains have at most MAX_SQUEEZER_DIM // 2 = 2048 levels
    (33 kB) and the preparation's at most sqrt(max_dim) (1183 at
    DEFAULT_MAX_DIM), so the 256 entries hold at most 8.4 MB at the default
    budget.
    The default ``su11lso check`` fills 323 keys, and the evictions cost
    it no extra miss.
    """
    _, coupling = _sector_chain(k, length)
    start = np.zeros((length, 1), dtype=complex)
    start[0] = 1.0
    with _one_blas_thread():
        response = _apply_skew_exp(-g * coupling, start)[:, 0]
    response.flags.writeable = False
    return response


def apply_two_mode_squeezer_batch(
    batch: np.ndarray, g: float, d_a: int, d_b: int
) -> np.ndarray:
    """exp(g ab - g a'b') applied in place to (d_a*d_b, C) column-stacked
    states that hold amplitude only at n_b = 0, as |alpha>|0> does.

    g is signed.  The generator conserves n_a - n_b, so the amplitude a_k at
    |k, 0> spreads along the n_a - n_b = k chain alone, as a_k times that
    chain's memoized first-level response (``_chain_response``); rows
    k d_b + j (d_b + 1) hold its levels.  Only the held amplitudes are
    visited.  A batch with amplitude at n_b > 0 raises ValueError.
    """
    if batch.reshape(d_a, d_b, -1)[:, 1:].any():
        raise ValueError("the first squeezer takes states with amplitude only at n_b = 0")
    if g == 0.0:
        return batch
    for k in np.flatnonzero(batch[::d_b].any(axis=1)).tolist():
        length = min(d_a - k, d_b)
        response = _chain_response(g, k, length)
        batch[k * d_b :: d_b + 1][:length] = response[:, None] * batch[k * d_b]
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


def apply_single_mode_squeezer(psi: np.ndarray, r: float) -> np.ndarray:
    """exp[(r/2)(a'^2 - a^2)] on mode a of a copy of the state.

    Parity is conserved, so the generator splits into two skew-symmetric
    tridiagonal chains over even and odd photon numbers; each acts on its
    rows of the state, and no d_a x d_a operator is formed.
    """
    out = np.empty_like(psi)  # the two chains write every row
    for parity in (0, 1):
        n = np.arange(parity, psi.shape[0] - 2, 2)  # each level but the chain's last
        sub = 0.5 * r * np.sqrt((n + 1.0) * (n + 2.0))
        out[parity::2] = _apply_skew_exp(sub, psi[parity::2])
    return out


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


def _loss_family(occupation: np.ndarray, t: float, total: float) -> np.ndarray:
    """Loss amplitudes of the Kraus orders a state needs, as columns u[n, l] = u_l(n).

    occupation is the state's mode-a photon-number distribution and total
    its squared norm.  Order l carries the weight sum_n u_l(n)^2
    occupation[n + l]; the family stops once the weight left out falls below
    1e-12, or where no photons are left to lose.
    """
    d = len(occupation)
    amps = []
    accumulated = 0.0
    for l, amp in enumerate(_loss_amplitudes(t, d)):
        if l > 0 and not occupation[l:].any():
            break
        amps.append(amp)
        accumulated += float(amp**2 @ occupation[l:])
        if total - accumulated < 1e-12:
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


def _loss_grams(sigma: np.ndarray, u: np.ndarray, total: float) -> np.ndarray:
    """Gram matrices G_j = K^H n_a^j K (j = 0, 1, 2) of the Kraus vectors K_l = Pi_l psi.

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
    powers = np.arange(end, dtype=float) ** np.arange(3.0)[:, None]
    gram = np.zeros((3, count, count), dtype=complex)
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


def cutoff_check(psi: np.ndarray) -> CutoffDiagnostics:
    """Norm deficit plus occupation mass of the top two Fock layers; only
    ``auto_prepared_state`` tests them, against its tail_tol."""
    deficit = abs(1.0 - float(np.vdot(psi, psi).real))
    pa, pb = _marginals(psi)
    la = min(2, len(pa) - 1)
    lb = min(2, len(pb) - 1)
    return CutoffDiagnostics(
        norm_deficit=deficit,
        top_mass_a=float(np.sum(pa[len(pa) - la :])),
        top_mass_b=float(np.sum(pb[len(pb) - lb :])),
    )


def prepared_state(
    alpha: complex, g: float, r: float, cutoff_a: int, cutoff_b: int
) -> np.ndarray:
    """Fixed-cutoff internal state: single-mode squeeze after the first squeezer."""
    psi = build_input(alpha, cutoff_a, cutoff_b)
    apply_two_mode_squeezer_batch(psi.reshape(-1, 1), g, cutoff_a, cutoff_b)
    return apply_single_mode_squeezer(psi, r)


def _check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and non-negative (zero is valid)."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _next_dim(marginal: np.ndarray, tol: float, current: int) -> int:
    """The next cutoff of a mode whose top two layers hold more than tol.

    Fits the exponential decay of the occupation over its top 35% once.  A
    geometric tail with per-level ratio q carries q/(1-q) of its top-layer
    mass beyond the cutoff (heavy squeezed tails, q near 1, make the raw
    top-layer mass a severe underestimate), so that factor, clamped to
    [1, 200], scales the top-layer mass, and the cutoff grows to where the
    fitted decay takes it to 0.45 tol, with a mild overshoot.  Without a
    clean fit (under six levels, an empty level, or a slope above -1e-3),
    or at tol zero, it grows by 1.45 plus 8.  The result always exceeds
    ``current``.
    """
    fallback = int(current * 1.45) + 8
    window = marginal[max(int(0.65 * len(marginal)), 1) :]
    if len(window) < 6 or np.any(window <= 0.0):
        return fallback
    slope = float(np.polyfit(np.arange(len(window)), np.log(window), 1)[0])
    if slope > -1e-3 or tol == 0.0:
        return fallback
    q = math.exp(slope)
    estimate = float(marginal[-2:].sum()) * min(max(q / (1.0 - q), 1.0), 200.0)
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
    that mode along its extrapolated decay (``_next_dim``, always
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
        diag = cutoff_check(psi)
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
            d_a = _next_dim(marg_a, tail_tol, d_a)
        if not pass_b:
            d_b = _next_dim(marg_b, tail_tol, d_b)


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


def _gate_pair(g: float) -> tuple[float, float]:
    """(c, s) of the phase-flipped second squeezer: U2' a U2 = c a + s b'.

    Read off the literal gate, exp(-g ab + g a'b') on the n_a - n_b chains
    through |0,0>, |1,0> and |0,1> (``_chain_response`` at gain -g):
    c = <U2 00|a|U2 10> and s = <U2 01|a|U2 00>.  The chains double from
    16 levels until c^2 - s^2 = 1 to 1e-13, up to MAX_SQUEEZER_DIM // 2
    levels, the longest chain the preparation's single-mode squeezer
    eigendecomposes; a pair that has not converged there raises
    NonconvergedOracleError.
    """
    length = 16
    while True:
        chains = []
        for k in (0, 1, -1):
            na, _ = _sector_chain(k, length - abs(k))
            chains.append((na, _chain_response(-g, k, len(na))))
        (na_00, u_00), (na_10, u_10), (_, u_01) = chains
        # a|j+1, j> = sqrt(j+1) |j, j> and a|j+1, j+1> = sqrt(j+1) |j, j+1>
        c = np.vdot(u_00[:-1], np.sqrt(na_10) * u_10).real
        s = np.vdot(u_01, np.sqrt(na_00[1:]) * u_00[1:]).real
        error = abs(c * c - s * s - 1.0)
        if error <= 1e-13:
            return float(c), float(s)
        longer = min(2 * length, MAX_SQUEEZER_DIM // 2)
        if longer <= length:
            raise NonconvergedOracleError(
                f"second squeezer: {length}-level chains leave c^2 - s^2 - 1 = {error:.3g}, "
                f"and longer ones exceed the {longer}-level chain bound"
            )
        length = longer


class SensitivityOracle:
    """Reusable output-port evaluator for one (alpha, g, r).

    Prepares the internal state once, a (d_a, d_b) array ``prep``, escalated
    to tail masses and a norm deficit of prep_tail_tol within max_dim cells.
    Each measurement reads <X>, <X^2> and the exact d<X>/dphi at the output
    off that state (``quadrature_statistics``); ``su11lso.crosscheck`` forms
    Var X and delta-phi from them.  Engines share only the memoized two-mode
    chain responses (``_chain_response``), pure functions of their key, so a
    result does not depend on what ran before.  A prep_tail_tol that is
    negative or not finite raises ValueError naming it.
    """

    def __init__(
        self,
        alpha: complex,
        g: float,
        r: float,
        max_dim: int = DEFAULT_MAX_DIM,
        prep_tail_tol: float = DEFAULT_TAIL_TOL,
    ):
        _check_tolerance("prep_tail_tol", prep_tail_tol)
        self.g = float(g)
        self.prep, _ = auto_prepared_state(alpha, g, r, prep_tail_tol, max_dim)

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
        pair = _gate_pair(self.g)
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
        # e^{-i phi} and e^{-2i phi} from the folded angle theta of e^{-i phi}:
        # the product 2 phi would double phi's rounding
        theta = np.angle(np.exp(-1j * np.asarray(phi_values, dtype=float)))
        turn, turn2 = np.exp(1j * theta), np.exp(2j * theta)
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
def mixed_qfi_from_state(psi: np.ndarray, eta: float) -> float:
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
    zero state) gives F = 0.  The Kraus family stops once the weight it
    leaves out falls below 1e-12 (``_loss_family``); there is no knob.  An
    eta outside [0, 1] raises ValueError.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    sigma = _mode_a_sigma(psi)
    total = float(np.vdot(psi, psi).real)
    u = _loss_family(sigma.diagonal().real, eta, total)
    gram = _loss_grams(sigma, u, total)
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
