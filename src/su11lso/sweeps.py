"""Parameter sweeps and figure presets with CSV / JSON-lines output.

A sweep varies one quantity over a grid, optionally as a family of series
(curves), and evaluates any subset of the metrology outputs per point.
Presets reproduce the datasets behind the reference figures: each pins the
fixed parameters the corresponding caption states; grid densities and axis
ranges are preset choices, configurable per run.

Rows carry every parameter column plus the requested quantities and a
flags column; points with no phase information or vacuum-degenerate
benchmarks stay in the output as flagged rows with the affected cells
empty, never as silent omissions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .metrology import (
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sql_hl,
    total_photon_number,
)
from .moments import InterferometerParams


def _cells(report, name):
    return getattr(report, name), report.status


# Each entry evaluates one quantity over a series of points (with its etas),
# giving (values, status): status "ok", "divergent" or "degenerate" per
# point, or None when every point is ok.  The lambdas look the metrology
# functions up in this module's namespace at call time, so a wrapper
# installed there (perfbench's tracer) sees every call.
_QUANTITY_TABLE = {
    "delta_phi": lambda p, eta: _cells(phase_sensitivity(p), "delta_phi"),
    "delta_phi_min": lambda p, eta: ([o.delta_phi_min for o in optimal_phase(p)], None),
    "N": lambda p, eta: (total_photon_number(p), None),
    "sql": lambda p, eta: sql_hl(p)[::2],
    "hl": lambda p, eta: sql_hl(p)[1:],
    "qfi": lambda p, eta: _cells(qfi_ideal(p), "fisher"),
    "qcrb": lambda p, eta: _cells(qfi_ideal(p), "qcrb"),
    "qfi_lossy": lambda p, eta: _cells(qfi_lossy(p, eta), "fisher_lossy"),
    "qcrb_lossy": lambda p, eta: _cells(qfi_lossy(p, eta), "qcrb_lossy"),
}

QUANTITIES = tuple(_QUANTITY_TABLE)

SWEEP_VARIABLES = ("phi", "g", "alpha", "r", "t1", "t2", "t_k", "eta")

PARAM_COLUMNS = ("g", "alpha", "r", "t1", "t2", "phi", "eta")


@dataclass(frozen=True)
class SweepSeries:
    """One curve of a sweep: a label plus parameter overrides.

    ``sweep_target`` in the overrides redirects the swept value when the
    sweep variable is the generic transmittance ``t_k`` (loss placement).
    """

    label: str = ""
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    count: int
    fixed: InterferometerParams
    quantities: tuple[str, ...]
    series: tuple[SweepSeries, ...] = (SweepSeries(),)
    eta: float = 1.0

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        unknown = set(self.quantities) - set(QUANTITIES)
        if unknown:
            raise ValueError(f"unknown quantities: {sorted(unknown)}")
        if self.count < 2:
            raise ValueError("count must be at least 2")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise ValueError("start and stop must be finite, with start below stop")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def _series_points(
    spec: SweepSpec, series: SweepSeries
) -> tuple[list[InterferometerParams], list[float]]:
    """Parameters and eta of each grid point of one series."""
    f = spec.fixed
    fields = {"g": f.g, "alpha": f.alpha, "r": f.r, "t1": f.t1, "t2": f.t2, "phi": f.phi}
    fields["eta"] = spec.eta
    fields.update(series.overrides)
    sweep_target = fields.pop("sweep_target", None)
    target = spec.variable
    if target == "t_k":
        if sweep_target not in ("t1", "t2"):
            raise ValueError("t_k sweeps need a series sweep_target of t1 or t2")
        target = sweep_target
    eta = fields.pop("eta")
    points, etas = [], []
    for value in spec.grid().tolist():
        if target == "eta":
            eta = value
        else:
            fields[target] = value
        points.append(InterferometerParams(**fields))
        etas.append(eta)
    return points, etas


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:  # false for NaN too
        raise ValueError(f"eta must be finite and lie in [0, 1], got {eta}")


_FLAG_BITS = {"divergent": 1, "degenerate": 2, "unbounded": 4}

# the flags cell of each combination of flag bits: names sorted, ";"-joined
_FLAG_TEXT = tuple(
    ";".join(sorted(name for name, bit in _FLAG_BITS.items() if bits & bit))
    for bits in range(8)
)


def _evaluate_series(
    points: list[InterferometerParams],
    etas: list[float],
    quantities: tuple[str, ...],
    known: dict | None = None,
) -> tuple[dict, list[str]]:
    """Cells of each quantity and the flags cell of each point of a series.

    Each quantity is evaluated over the whole series in one call; ``known``
    holds the (values, status) of quantities solved for the series
    beforehand.  A flagged point's cell is None.  A value that is not finite
    where its status is ok means overflow: ValueError names the first such
    point of the first quantity that has one (``run_sweep`` turns that into
    the point-by-point order).
    """
    for eta in etas:
        _check_eta(eta)
    known = known or {}
    bits = np.zeros(len(points), dtype=int)
    cells = {}
    for q in quantities:
        values, status = known[q] if q in known else _QUANTITY_TABLE[q](points, etas)
        values = np.asarray(values, dtype=float)
        flagged = np.zeros(len(points), dtype=bool)
        if status is not None:
            for name in ("divergent", "degenerate"):
                hit = status == name
                bits |= _FLAG_BITS[name] * hit
                flagged |= hit
        overflow = ~(flagged | np.isfinite(values))
        inf = overflow & np.isinf(values)
        if q == "delta_phi_min":  # a batch optimum reads inf where no phase informs
            bits |= _FLAG_BITS["divergent"] * inf
            flagged |= inf
            overflow &= ~inf
        elif q == "qcrb_lossy":  # an infinite bound is the documented "unbounded"
            bits |= _FLAG_BITS["unbounded"] * inf
            overflow &= ~inf
        if overflow.any():
            i = int(np.argmax(overflow))
            p, eta = points[i], etas[i]
            raise ValueError(
                f"{q} = {float(values[i])} is not finite at g={p.g:g}, "
                f"alpha={complex(p.alpha):g}, r={p.r:g}, t1={p.t1:g}, t2={p.t2:g}, "
                f"phi={p.phi:g}, eta={eta:g}"
            )
        column = values.tolist()
        for i in np.flatnonzero(flagged).tolist():
            column[i] = None
        cells[q] = column
    return cells, [_FLAG_TEXT[b] for b in bits.tolist()]


def point_row(params: InterferometerParams, eta: float, values) -> dict:
    """One output row: the parameter columns, then the quantity values
    (a dict or (quantity, value) pairs)."""
    row = {
        "g": params.g,
        "alpha": params.alpha.real if params.alpha.imag == 0 else params.alpha,
        "r": params.r,
        "t1": params.t1,
        "t2": params.t2,
        "phi": params.phi,
        "eta": eta,
    }
    row.update(values)
    return row


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep; series-major, grid-minor row order, deterministic.

    Every quantity is evaluated over a whole series in one call, and
    ``delta_phi_min`` first (one ``optimal_phase`` call per series), so its
    overflow is reported before any other quantity's.  Any other overflow
    raises the ValueError that evaluating the series point by point, each
    point's quantities in order, meets first.
    """
    rows = []
    for series in spec.series:
        points, etas = _series_points(spec, series)
        for eta in etas:
            _check_eta(eta)
        # overflow is reported by the finiteness checks, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            known = {}
            if "delta_phi_min" in spec.quantities:
                known["delta_phi_min"] = _QUANTITY_TABLE["delta_phi_min"](points, etas)
            try:
                cells, flags = _evaluate_series(points, etas, spec.quantities, known)
            except ValueError:
                # the series ran quantity by quantity: raise what the
                # point-by-point order meets first
                for i in range(len(points)):
                    one = {q: (values[i : i + 1], None) for q, (values, _) in known.items()}
                    _evaluate_series(points[i : i + 1], etas[i : i + 1], spec.quantities, one)
                raise
        columns = [cells[q] for q in spec.quantities]
        for params, eta, flag, *values in zip(points, etas, flags, *columns):
            row = {"series": series.label, **point_row(params, eta, zip(spec.quantities, values))}
            row["flags"] = flag
            rows.append(row)
    return rows


_NUMBER_FORMAT = ".15g"


def sweep_columns(spec: SweepSpec) -> list[str]:
    return ["series", *PARAM_COLUMNS, *spec.quantities, "flags"]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return f'"{value}"' if ("," in value or '"' in value) else value
    if isinstance(value, (float, complex)):  # infinities format as inf / -inf
        return format(value, _NUMBER_FORMAT)
    return str(value)


def json_value(value):
    """A row cell as strict JSON: infinities as strings, complex as [re, im]."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, complex):
        return value.real if value.imag == 0 else [value.real, value.imag]
    return value


def render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        # an exact float, nearly every cell, skips the general formatter
        cells = [
            format(v, _NUMBER_FORMAT) if type(v) is float else _format_cell(v)
            for v in map(row.get, columns)
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_jsonl(rows: list[dict], columns: list[str]) -> str:
    out = [
        json.dumps({c: json_value(row.get(c)) for c in columns}, allow_nan=False)
        for row in rows
    ]
    return "\n".join(out) + "\n"


def write_sweep(spec: SweepSpec, path: str, fmt: str = "csv") -> list[dict]:
    rows = run_sweep(spec)
    columns = sweep_columns(spec)
    # called by name, not through a lookup table, so a wrapper installed on
    # this module's render_csv / render_jsonl sees the call
    if fmt == "csv":
        text = render_csv(rows, columns)
    elif fmt == "jsonl":
        text = render_jsonl(rows, columns)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return rows


# ---------------------------------------------------------------------------
# figure presets

R_SERIES = (0.0, 0.3, 0.6, 1.0)

DEFAULT_POINTS = 200


def r_series(values) -> tuple[SweepSeries, ...]:
    """One curve per internal squeezing value r, labelled ``r=<value>``."""
    return tuple(SweepSeries(label=f"r={r:g}", overrides={"r": r}) for r in values)


_R_CURVES = r_series(R_SERIES)

# each r curve twice: the swept transmittance placed inside (t1) or after (t2)
_LOSS_PLACEMENT = tuple(
    SweepSeries(label=f"r={r:g} {side}", overrides={"r": r, "sweep_target": swept, kept: 1.0})
    for r in R_SERIES
    for side, swept, kept in (("internal", "t1", "t2"), ("external", "t2", "t1"))
)

# name: (variable, start, stop, quantities, fixed overrides, eta, series);
# the fixed parameters are g = 1, alpha = 1, r = 0, t1 = t2 = 1, phi = 0
# unless overridden
FIGURE_PRESETS = {
    "fig2": ("phi", 0.0, 3.0, ("delta_phi",), {}, 1.0, _R_CURVES),
    "fig3": ("g", 0.0, 1.5, ("delta_phi_min",), {}, 1.0, _R_CURVES),
    "fig4": ("alpha", 0.0, 2.0, ("delta_phi_min",), {}, 1.0, _R_CURVES),
    "fig5": ("t_k", 0.2, 1.0, ("delta_phi_min",), {}, 1.0, _LOSS_PLACEMENT),
    "fig6a": ("phi", 0.0, 3.0, ("delta_phi", "sql", "hl"), {}, 1.0, _R_CURVES),
    "fig6b": (
        "phi", 0.0, 3.0, ("delta_phi", "sql", "hl"), {"t1": 0.5, "t2": 0.5}, 1.0, _R_CURVES
    ),
    "fig7a": ("g", 0.0, 1.5, ("qfi",), {}, 1.0, _R_CURVES),
    "fig7b": ("alpha", 0.0, 2.0, ("qfi",), {}, 1.0, _R_CURVES),
    "fig8a": ("g", 0.0, 1.5, ("qcrb",), {}, 1.0, _R_CURVES),
    "fig8b": ("alpha", 0.0, 2.0, ("qcrb",), {}, 1.0, _R_CURVES),
    "fig10": ("eta", 0.0, 1.0, ("qfi_lossy", "qcrb_lossy"), {}, 1.0, _R_CURVES),
    "fig11a": ("g", 0.0, 1.5, ("qfi_lossy",), {}, 0.5, _R_CURVES),
    "fig11b": ("alpha", 0.0, 2.0, ("qfi_lossy",), {}, 0.5, _R_CURVES),
}


def figure_preset(name: str, points: int = DEFAULT_POINTS) -> SweepSpec:
    if name not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; known: {sorted(FIGURE_PRESETS)}")
    variable, start, stop, quantities, fixed, eta, series = FIGURE_PRESETS[name]
    params = InterferometerParams(**{"g": 1.0, "alpha": 1.0, "r": 0.0, **fixed})
    return SweepSpec(variable, start, stop, points, params, quantities, series, eta)
