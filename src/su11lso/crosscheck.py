"""Cross-path validation grid: analytic formulas against the Fock oracle.

Runs sensitivity, photon number, and Fisher information through both
computation routes over a parameter grid and reports the worst relative
deviation per quantity.  Points with no phase information (alpha = 0) are
flagged divergent and excluded from the deviation statistics, with the
divergence itself verified on both routes once per state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .errors import (
    DegenerateConfigurationError,
    DivergentSensitivityError,
    NonconvergedOracleError,
)
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


@dataclass(frozen=True)
class CellResult:
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
    def passed(self) -> bool:
        return self.max_deviation() <= self.tolerance

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
        lines.append(
            f"overall: {verdict} (tolerance {self.tolerance:g}, worst margin {margin:.3g}, "
            f"runtime {self.runtime:.1f}s)"
        )
        return lines


def _rel(analytic: float, oracle: float) -> float:
    return abs(analytic - oracle) / max(abs(oracle), 1e-12)


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

    One oracle engine serves each (alpha, g, r); transmittance pairs are
    grouped by internal loss so a single second-squeezer pass covers both
    external-loss values, and the three finite-difference phases of each
    requested phi go through that same pass.  A tolerance that is negative
    or not finite, a max_dim below 1, an empty grid axis, or a grid point
    that is no valid configuration or overflows the analytic route raises
    ValueError, naming the argument or parameter, before any engine runs.
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
    # every grid point is checked before the first engine, which may run
    # long (or never finish) on a point the analytic route already rejects
    for alpha in alphas:
        for g in gs:
            for r in rs:
                base = InterferometerParams(g=g, alpha=alpha, r=r)
                _check_analytic_route(base)
    for t1, t2 in t_pairs:
        for phi in phis:
            base.replace(t1=t1, t2=t2, phi=phi)  # raises on a bad t1, t2 or phi
    t0 = time.time()
    result = CrossCheckResult(tolerance=rel_tol)

    t1_groups: dict[float, list[float]] = {}
    for t1, t2 in t_pairs:
        t1_groups.setdefault(t1, []).append(t2)

    for alpha in alphas:
        for g in gs:
            for r in rs:
                engine = SensitivityOracle(
                    alpha, g, r, kraus_tol=_KRAUS_TOL, max_dim=max_dim
                )
                base = InterferometerParams(g=g, alpha=alpha, r=r)
                _compare_state_quantities(result, base, engine)
                divergence_checked = False
                for t1, t2_list in t1_groups.items():
                    cells, checked = _compare_sensitivity_group(
                        result,
                        base,
                        engine,
                        t1,
                        tuple(t2_list),
                        tuple(phis),
                        check_divergence=not divergence_checked,
                    )
                    divergence_checked = divergence_checked or checked
                    if progress is not None:
                        progress(cells)
    result.runtime = time.time() - t0
    return result


def _check_analytic_route(base):
    """Raise ValueError where N or F of the analytic route overflows."""
    total_photon_number(base)
    try:
        qfi_ideal(base)
    except DegenerateConfigurationError:
        pass


def _compare_state_quantities(result, base, engine):
    n_analytic = total_photon_number(base)
    n_oracle = engine.photon_number()
    result.cells.append(
        CellResult(
            "N", base.alpha.real, base.g, base.r, None, None, None,
            n_analytic, n_oracle, _rel(n_analytic, n_oracle),
        )
    )
    try:
        f_analytic = qfi_ideal(base).fisher
    except DegenerateConfigurationError:
        f_oracle = engine.fisher_pure()
        flag = "degenerate" if abs(f_oracle) < 1e-9 else "degeneracy-mismatch"
        result.cells.append(
            CellResult(
                "F", base.alpha.real, base.g, base.r, None, None, None,
                0.0, f_oracle, 0.0 if flag == "degenerate" else math.inf, flag,
            )
        )
        return
    f_oracle = engine.fisher_pure()
    result.cells.append(
        CellResult(
            "F", base.alpha.real, base.g, base.r, None, None, None,
            f_analytic, f_oracle, _rel(f_analytic, f_oracle),
        )
    )


def _compare_sensitivity_group(
    result, base, engine, t1, t2_values, phis, check_divergence
):
    """Delta-phi cells for one t1 group, all phases in one oracle batch."""
    analytic: dict[tuple[float, float], float | None] = {}
    for t2 in t2_values:
        for phi in phis:
            params = base.replace(t1=t1, t2=t2, phi=phi)
            try:
                analytic[(t2, phi)] = phase_sensitivity(params).delta_phi
            except DivergentSensitivityError:
                analytic[(t2, phi)] = None

    all_divergent = all(v is None for v in analytic.values())
    if all_divergent and not check_divergence:
        cells = [
            CellResult(
                "delta_phi", base.alpha.real, base.g, base.r, t1, t2, phi,
                math.inf, math.inf, 0.0, "divergent",
            )
            for t2 in t2_values
            for phi in phis
        ]
        result.cells.extend(cells)
        return cells, False

    stats = engine.sensitivity_statistics(t1, t2_values, phis)
    cells = []
    for t2 in t2_values:
        for phi in phis:
            _, variance, slope = stats[(t2, phi)]
            oracle_divergent = abs(slope) < SLOPE_FLOOR
            ref = analytic[(t2, phi)]
            if ref is None or oracle_divergent:
                flag = (
                    "divergent"
                    if (ref is None and oracle_divergent)
                    else "divergence-mismatch"
                )
                cells.append(
                    CellResult(
                        "delta_phi", base.alpha.real, base.g, base.r, t1, t2, phi,
                        math.inf if ref is None else ref,
                        math.inf if oracle_divergent else math.nan,
                        0.0 if flag == "divergent" else math.inf,
                        flag,
                    )
                )
                continue
            oracle_delta = math.sqrt(max(variance, 0.0)) / abs(slope)
            cells.append(
                CellResult(
                    "delta_phi", base.alpha.real, base.g, base.r, t1, t2, phi,
                    ref, oracle_delta, _rel(ref, oracle_delta),
                )
            )
    result.cells.extend(cells)
    return cells, True
