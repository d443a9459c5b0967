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
from dataclasses import dataclass, field, replace

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

QUANTITIES = (
    "delta_phi",
    "delta_phi_min",
    "N",
    "sql",
    "hl",
    "qfi",
    "qcrb",
    "qfi_lossy",
    "qcrb_lossy",
)

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
    fields = {
        "g": spec.fixed.g,
        "alpha": spec.fixed.alpha,
        "r": spec.fixed.r,
        "t1": spec.fixed.t1,
        "t2": spec.fixed.t2,
        "phi": spec.fixed.phi,
    }
    eta = spec.eta
    target = spec.variable
    overrides = dict(series.overrides)
    sweep_target = overrides.pop("sweep_target", None)
    for key, val in overrides.items():
        if key == "eta":
            eta = val
        else:
            fields[key] = val
    if target == "t_k":
        if sweep_target not in ("t1", "t2"):
            raise ValueError("t_k sweeps need a series sweep_target of t1 or t2")
        target = sweep_target
    if target == "eta":
        eta = value
    else:
        fields[target] = value
    return InterferometerParams(**fields), eta


def _evaluate_quantities(
    params: InterferometerParams,
    eta: float,
    quantities: tuple[str, ...],
) -> tuple[dict, list[str]]:
    if not math.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    values: dict = {}
    flags: list[str] = []
    for q in quantities:
        try:
            if q == "delta_phi":
                values[q] = phase_sensitivity(params).delta_phi
            elif q == "delta_phi_min":
                values[q] = optimal_phase(params).delta_phi_min
            elif q == "N":
                values[q] = total_photon_number(params)
            elif q == "sql":
                values[q] = sql_hl(params)[0]
            elif q == "hl":
                values[q] = sql_hl(params)[1]
            elif q == "qfi":
                values[q] = qfi_ideal(params).fisher
            elif q == "qcrb":
                values[q] = qfi_ideal(params).qcrb
            elif q == "qfi_lossy":
                values[q] = qfi_lossy(params, eta).fisher_lossy
            elif q == "qcrb_lossy":
                val = qfi_lossy(params, eta).qcrb_lossy
                values[q] = val
                if math.isinf(val):
                    flags.append("unbounded")
        except DivergentSensitivityError:
            values[q] = None
            flags.append("divergent")
        except DegenerateConfigurationError:
            values[q] = None
            flags.append("degenerate")
        v = values[q]
        # an infinite qcrb_lossy is the documented "unbounded" result
        if v is not None and (math.isnan(v) or (math.isinf(v) and q != "qcrb_lossy")):
            raise ValueError(
                f"{q} = {v} is not finite at g={params.g:g}, alpha={complex(params.alpha):g}, "
                f"r={params.r:g}, t1={params.t1:g}, t2={params.t2:g}, phi={params.phi:g}, "
                f"eta={eta:g}"
            )
    return values, sorted(set(flags))


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep; series-major, grid-minor row order, deterministic."""
    rows = []
    for series in spec.series:
        for value in spec.grid():
            params, eta = _apply_point(spec, series, float(value))
            values, flags = _evaluate_quantities(params, eta, spec.quantities)
            row = {
                "series": series.label,
                "g": params.g,
                "alpha": params.alpha.real if params.alpha.imag == 0 else params.alpha,
                "r": params.r,
                "t1": params.t1,
                "t2": params.t2,
                "phi": params.phi,
                "eta": eta,
            }
            row.update(values)
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
    if isinstance(value, complex):
        return format(value, ".15g")
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".15g")
    return str(value)


def render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def render_jsonl(rows: list[dict], columns: list[str]) -> str:
    out = []
    for row in rows:
        obj = {}
        for c in columns:
            v = row.get(c)
            if isinstance(v, float) and math.isinf(v):
                v = "inf" if v > 0 else "-inf"
            if isinstance(v, complex):
                v = v.real if v.imag == 0 else [v.real, v.imag]
            obj[c] = v
        out.append(json.dumps(obj, allow_nan=False))
    return "\n".join(out) + "\n"


def write_sweep(spec: SweepSpec, path: str, fmt: str = "csv") -> list[dict]:
    rows = run_sweep(spec)
    columns = sweep_columns(spec)
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


def _r_series() -> tuple[SweepSeries, ...]:
    return tuple(SweepSeries(label=f"r={r:g}", overrides={"r": r}) for r in R_SERIES)


def _base(g=1.0, alpha=1.0, r=0.0, t1=1.0, t2=1.0, phi=0.0) -> InterferometerParams:
    return InterferometerParams(g=g, alpha=alpha, r=r, t1=t1, t2=t2, phi=phi)


def _preset_fig2(points):
    return SweepSpec("phi", 0.0, 3.0, points, _base(), ("delta_phi",), _r_series())


def _preset_fig3(points):
    return SweepSpec("g", 0.0, 1.5, points, _base(), ("delta_phi_min",), _r_series())


def _preset_fig4(points):
    return SweepSpec("alpha", 0.0, 2.0, points, _base(), ("delta_phi_min",), _r_series())


def _preset_fig5(points):
    series = []
    for r in R_SERIES:
        series.append(
            SweepSeries(
                label=f"r={r:g} internal",
                overrides={"r": r, "sweep_target": "t1", "t2": 1.0},
            )
        )
        series.append(
            SweepSeries(
                label=f"r={r:g} external",
                overrides={"r": r, "sweep_target": "t2", "t1": 1.0},
            )
        )
    return SweepSpec("t_k", 0.2, 1.0, points, _base(), ("delta_phi_min",), tuple(series))


def _preset_fig6a(points):
    return SweepSpec("phi", 0.0, 3.0, points, _base(), ("delta_phi", "sql", "hl"), _r_series())


def _preset_fig6b(points):
    return SweepSpec(
        "phi", 0.0, 3.0, points, _base(t1=0.5, t2=0.5),
        ("delta_phi", "sql", "hl"), _r_series(),
    )


def _preset_fig7a(points):
    return SweepSpec("g", 0.0, 1.5, points, _base(), ("qfi",), _r_series())


def _preset_fig7b(points):
    return SweepSpec("alpha", 0.0, 2.0, points, _base(), ("qfi",), _r_series())


def _preset_fig8a(points):
    return SweepSpec("g", 0.0, 1.5, points, _base(), ("qcrb",), _r_series())


def _preset_fig8b(points):
    return SweepSpec("alpha", 0.0, 2.0, points, _base(), ("qcrb",), _r_series())


def _preset_fig10(points):
    return SweepSpec(
        "eta", 0.0, 1.0, points, _base(), ("qfi_lossy", "qcrb_lossy"), _r_series()
    )


def _preset_fig11a(points):
    return SweepSpec("g", 0.0, 1.5, points, _base(), ("qfi_lossy",), _r_series(), eta=0.5)


def _preset_fig11b(points):
    return SweepSpec("alpha", 0.0, 2.0, points, _base(), ("qfi_lossy",), _r_series(), eta=0.5)


FIGURE_PRESETS = {
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6a": _preset_fig6a,
    "fig6b": _preset_fig6b,
    "fig7a": _preset_fig7a,
    "fig7b": _preset_fig7b,
    "fig8a": _preset_fig8a,
    "fig8b": _preset_fig8b,
    "fig10": _preset_fig10,
    "fig11a": _preset_fig11a,
    "fig11b": _preset_fig11b,
}


def figure_preset(name: str, points: int = DEFAULT_POINTS) -> SweepSpec:
    if name not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure preset {name!r}; known: {sorted(FIGURE_PRESETS)}")
    return FIGURE_PRESETS[name](points)
