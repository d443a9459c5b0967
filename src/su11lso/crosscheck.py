"""Cross-path validation grid: analytic formulas against the Fock oracle.

Runs sensitivity, photon number, and Fisher information through both
computation routes over a parameter grid and reports the worst relative
deviation per quantity.  A cell where neither route has information (no
phase slope, as at alpha = 0, or zero Fisher information) is flagged and
left out of the deviation statistics; a cell where only one route has
none is a mismatch, and any mismatch fails the check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import DegenerateConfigurationError
from .fock import DEFAULT_MAX_DIM, SensitivityOracle
from .metrology import SLOPE_FLOOR, phase_sensitivity, qfi_ideal, total_photon_number
from .moments import InterferometerParams

DEFAULT_ALPHAS = (0.0, 0.5, 1.0)
DEFAULT_GS = (0.0, 0.5, 1.0)
DEFAULT_RS = (0.0, 0.5, 1.0)
DEFAULT_T_PAIRS = ((1.0, 1.0), (1.0, 0.7), (0.7, 1.0), (0.7, 0.7))
DEFAULT_PHIS = (0.3, 0.8, 1.5)

# Kraus weight each engine may drop per loss family (fock's default is 1e-11);
# the work-grid and prep tolerances are fock's defaults
_KRAUS_TOL = 1e-9

# kind of missing information: (flag where both routes lack it, the value
# a route without it reads)
_NO_INFORMATION = {"divergence": ("divergent", math.inf), "degeneracy": ("degenerate", 0.0)}


@dataclass(frozen=True)
class CellResult:
    """One quantity at one grid point on both routes.

    flag is "" for a compared cell; "divergent" (no phase slope) or
    "degenerate" (zero F) where both routes lack information, with rel_dev
    0.0; "divergence-mismatch" or "degeneracy-mismatch" where one does, with
    rel_dev inf.  A route without information reads inf for delta_phi, 0.0
    for F.
    """

    quantity: str
    alpha: float
    g: float
    r: float
    t1: float | None
    t2: float | None
    phi: float | None
    analytic: float
    oracle: float
    rel_dev: float
    flag: str = ""


@dataclass
class CrossCheckResult:
    tolerance: float
    cells: list[CellResult] = field(default_factory=list)
    runtime: float = 0.0

    def max_deviation(self, quantity: str | None = None) -> float:
        devs = [
            c.rel_dev
            for c in self.cells
            if not c.flag and (quantity is None or c.quantity == quantity)
        ]
        return max(devs, default=0.0)

    @property
    def quantities(self) -> tuple[str, ...]:
        return tuple(sorted({c.quantity for c in self.cells}))

    @property
    def mismatches(self) -> int:
        return sum(c.flag.endswith("mismatch") for c in self.cells)

    @property
    def passed(self) -> bool:
        return not self.mismatches and self.max_deviation() <= self.tolerance

    def summary_lines(self) -> list[str]:
        lines = [f"{'quantity':<10} {'cells':>6} {'flagged':>8} {'max rel dev':>14}"]
        for q in self.quantities:
            cells = [c for c in self.cells if c.quantity == q]
            flagged = sum(1 for c in cells if c.flag)
            lines.append(
                f"{q:<10} {len(cells):>6} {flagged:>8} {self.max_deviation(q):>14.3e}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        worst = self.max_deviation()
        if self.tolerance > 0:
            margin = worst / self.tolerance
        else:
            margin = math.inf if worst > 0 else 0.0
        mismatches = f", mismatches {self.mismatches}" if self.mismatches else ""
        lines.append(
            f"overall: {verdict} (tolerance {self.tolerance:g}, worst margin {margin:.3g}"
            f"{mismatches}, runtime {self.runtime:.1f}s)"
        )
        return lines


def _cell(quantity, kind, base, analytic, oracle, where=(None, None, None)):
    """The cell of two route values, each None where its route has no information."""
    if analytic is None or oracle is None:
        agreed, missing = _NO_INFORMATION[kind]
        if analytic is None and oracle is None:
            flag, rel_dev = agreed, 0.0
        else:
            flag, rel_dev = f"{kind}-mismatch", math.inf
        analytic = missing if analytic is None else analytic
        oracle = missing if oracle is None else oracle
    else:
        flag = ""
        rel_dev = abs(analytic - oracle) / max(abs(oracle), 1e-12)
    return CellResult(
        quantity, base.alpha.real, base.g, base.r, *where, analytic, oracle, rel_dev, flag
    )


def run_cross_check(
    alphas=DEFAULT_ALPHAS,
    gs=DEFAULT_GS,
    rs=DEFAULT_RS,
    t_pairs=DEFAULT_T_PAIRS,
    phis=DEFAULT_PHIS,
    rel_tol: float = 1e-6,
    max_dim: int = DEFAULT_MAX_DIM,
    progress=None,
) -> CrossCheckResult:
    """Compare delta-phi, N, and F across the two routes over the grid.

    One oracle engine serves each (alpha, g, r), and one oracle call sweeps
    all of its transmittance pairs, grouped by internal loss t1, at every
    requested phi.  The oracle returns <X>, <X^2> and the exact phase slope
    d<X>/dphi, from which each cell forms Var X and delta-phi.  Of the t1
    groups that the analytic route finds divergent throughout, that call
    sweeps only the first; a second call sweeps the rest only where the
    oracle finds a phase slope in that first one.  progress, if given,
    receives each t1 group's cells, in grid order, once its engine is done;
    an engine whose oracle call raises reports none of its groups.

    Every delta-phi cell is computed, in one call, before the first engine.
    A negative or non-finite tolerance, a max_dim below 1, an empty grid
    axis or one that repeats a value, a non-real alpha, or a grid point that
    is no valid configuration, overflows the analytic route or cancels its
    homodyne variance raises ValueError, naming the argument or parameter,
    before any engine runs.
    """
    # a zero tolerance asks for exact agreement: it runs, and reports FAIL
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {rel_tol!r}")
    if max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim!r}")
    for name, values in (
        ("alphas", alphas), ("gs", gs), ("rs", rs), ("t_pairs", t_pairs), ("phis", phis)
    ):
        if len(values) == 0:
            raise ValueError(f"the {name} grid is empty")
        # a repeated value would run, and count, its cells twice
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"the {name} grid repeats {value!r}")
    # every grid point is checked before the first engine, which may run
    # long (or never finish) on a point the analytic route already rejects
    states = []  # (alpha, g, r, base, analytic N, analytic F or None)
    for alpha in alphas:
        # cells and progress lines report alpha as a real number
        if complex(alpha).imag != 0.0:
            raise ValueError(f"alpha must be real, got {alpha!r}")
        for g in gs:
            for r in rs:
                base = InterferometerParams(g=g, alpha=alpha, r=r)
                n = total_photon_number(base)
                try:
                    f = qfi_ideal(base).fisher
                except DegenerateConfigurationError:
                    f = None
                states.append((alpha, g, r, base, n, f))
    # a point without a phase slope reads None, as its own call's DivergentSensitivityError
    cell_keys = [(t1, t2, phi) for t1, t2 in t_pairs for phi in phis]
    report = phase_sensitivity(
        [state[3].replace(t1=t1, t2=t2, phi=phi) for state in states for t1, t2, phi in cell_keys]
    )
    deltas = (None if status == "divergent" else d
              for d, status in zip(report.delta_phi.tolist(), report.status))
    t0 = time.time()
    result = CrossCheckResult(tolerance=rel_tol)

    phis = tuple(phis)
    t1_groups = {t1: tuple(t2 for s, t2 in t_pairs if s == t1) for t1, _ in t_pairs}
    keys = {t1: [(t1, t2, phi) for t2 in t2s for phi in phis] for t1, t2s in t1_groups.items()}

    for alpha, g, r, base, n_analytic, f_analytic in states:
        engine = SensitivityOracle(alpha, g, r, kraus_tol=_KRAUS_TOL, max_dim=max_dim)
        result.cells.append(_cell("N", "", base, n_analytic, engine.photon_number()))
        f_oracle = engine.fisher_pure()
        f_oracle = f_oracle if abs(f_oracle) >= 1e-9 else None
        result.cells.append(_cell("F", "degeneracy", base, f_analytic, f_oracle))
        analytic = {k: next(deltas) for k in cell_keys}  # this engine's slice
        # of the groups the analytic route finds divergent throughout, the
        # oracle sweeps the rest only where it finds a slope in the first
        divergent = [t1 for t1, group in keys.items() if all(analytic[k] is None for k in group)]
        oracle = _oracle(engine, t1_groups, [t1 for t1 in keys if t1 not in divergent[1:]], phis)
        if divergent[1:] and any(oracle[k] is not None for k in keys[divergent[0]]):
            oracle.update(_oracle(engine, t1_groups, divergent[1:], phis))
        for group in keys.values():
            cells = [
                _cell("delta_phi", "divergence", base, analytic[k], oracle.get(k), k) for k in group
            ]
            result.cells.extend(cells)
            if progress is not None:
                progress(cells)
    result.runtime = time.time() - t0
    return result


def _oracle(engine, t1_groups, t1s, phis):
    """Oracle delta-phi per (t1, t2, phi) of the groups t1s; None without a phase slope."""
    stats = engine.quadrature_statistics({t1: t1_groups[t1] for t1 in t1s}, phis)
    return {k: math.sqrt(max(x2 - x * x, 0.0)) / abs(dx) if abs(dx) >= SLOPE_FLOOR else None
            for k, (x, x2, dx) in stats.items()}
