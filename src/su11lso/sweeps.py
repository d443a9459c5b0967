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

from .errors import DegenerateConfigurationError, DivergentSensitivityError
from .metrology import (
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sql_hl,
    total_photon_number,
)
from .moments import InterferometerParams

# The lambdas look the metrology functions up in this module's namespace at
# call time, so a wrapper installed there (perfbench's tracer) sees every call.
_QUANTITY_TABLE = {
    "delta_phi": lambda p, eta: phase_sensitivity(p).delta_phi,
    "delta_phi_min": lambda p, eta: optimal_phase(p).delta_phi_min,
    "N": lambda p, eta: total_photon_number(p),
    "sql": lambda p, eta: sql_hl(p)[0],
    "hl": lambda p, eta: sql_hl(p)[1],
    "qfi": lambda p, eta: qfi_ideal(p).fisher,
    "qcrb": lambda p, eta: qfi_ideal(p).qcrb,
    "qfi_lossy": lambda p, eta: qfi_lossy(p, eta).fisher_lossy,
    "qcrb_lossy": lambda p, eta: qfi_lossy(p, eta).qcrb_lossy,
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


def _apply_point(
    spec: SweepSpec, series: SweepSeries, value: float
) -> tuple[InterferometerParams, float]:
    """Parameters and eta for one grid point of one series."""
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
    fields[target] = value
    eta = fields.pop("eta")
    return InterferometerParams(**fields), eta


def _evaluate_quantities(
    params: InterferometerParams,
    eta: float,
    quantities: tuple[str, ...],
) -> tuple[dict, list[str]]:
    if not 0.0 <= eta <= 1.0:  # false for NaN too
        raise ValueError(f"eta must be finite and lie in [0, 1], got {eta}")
    values: dict = {}
    flags: list[str] = []
    for q in quantities:
        try:
            v = _QUANTITY_TABLE[q](params, eta)
        except DivergentSensitivityError:
            v = None
            flags.append("divergent")
        except DegenerateConfigurationError:
            v = None
            flags.append("degenerate")
        values[q] = v
        if v is None or math.isfinite(v):
            continue
        # an infinite qcrb_lossy is the documented "unbounded" result
        if q == "qcrb_lossy" and math.isinf(v):
            flags.append("unbounded")
            continue
        raise ValueError(
            f"{q} = {v} is not finite at g={params.g:g}, alpha={complex(params.alpha):g}, "
            f"r={params.r:g}, t1={params.t1:g}, t2={params.t2:g}, phi={params.phi:g}, "
            f"eta={eta:g}"
        )
    return values, sorted(set(flags))


def point_row(params: InterferometerParams, eta: float, values: dict) -> dict:
    """One output row: the parameter columns, then the quantity values."""
    return {
        "g": params.g,
        "alpha": params.alpha.real if params.alpha.imag == 0 else params.alpha,
        "r": params.r,
        "t1": params.t1,
        "t2": params.t2,
        "phi": params.phi,
        "eta": eta,
        **values,
    }


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep; series-major, grid-minor row order, deterministic."""
    rows = []
    for series in spec.series:
        for value in spec.grid():
            params, eta = _apply_point(spec, series, float(value))
            values, flags = _evaluate_quantities(params, eta, spec.quantities)
            row = {"series": series.label, **point_row(params, eta, values)}
            row["flags"] = ";".join(flags)
            rows.append(row)
    return rows


def sweep_columns(spec: SweepSpec) -> list[str]:
    return ["series", *PARAM_COLUMNS, *spec.quantities, "flags"]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return f'"{value}"' if ("," in value or '"' in value) else value
    if isinstance(value, (float, complex)):  # infinities format as inf / -inf
        return format(value, ".15g")
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
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
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
