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

A series is its columns (``moments._Series``): the swept parameter as the
grid, every other one as one value, checked by building
``InterferometerParams`` at the grid's two ends (at every point only
where one fails).  A sweep is one evaluation: one evaluator,
``_evaluate_series``, fills the cells of its series' joined state
(``moments._joined``), one call per quantity, and alone decides which
overflow a failing series reports: the first that evaluating it point by
point meets, ``delta_phi_min`` first.  A failing sweep replays series by
series, so it reports the first failing series' error.  ``point``
evaluates its point as a series of one, so it prints the values, flags
and overflow error of the sweep row at that point.

A result stays in columns from evaluation to output: ``run_sweep`` returns
a ``SweepResult`` holding, per series, the label, parameter, quantity and
flags columns, and builds no row.  ``render_csv`` renders each series
through one row template (``render_csv``); ``render_jsonl`` and ``point``
read the same columns.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .metrology import (
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sql_hl,
    total_photon_number,
)
from .moments import _FIELDS, InterferometerParams, _check_number, _joined, _Series, _series


def _cells(report, name):
    return getattr(report, name), report.status


# Each entry evaluates one quantity over a series of points (with its etas),
# giving (values, status): status "ok", "divergent" or "degenerate" per
# point, or None when every point is ok.  The lambdas look the metrology
# functions up in this module's namespace at call time, so a wrapper
# installed there (perfbench's tracer) sees every call.
_QUANTITY_TABLE = {
    "delta_phi": lambda p, eta: _cells(phase_sensitivity(p), "delta_phi"),
    "delta_phi_min": lambda p, eta: _cells(optimal_phase(p), "delta_phi_min"),
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
        if not self.series:
            raise ValueError("a sweep needs at least one series")
        if not isinstance(self.count, numbers.Integral):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ValueError("count must be at least 2")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise ValueError("start and stop must be finite, with start below stop")
        if not math.isfinite(float(self.stop) - float(self.start)):
            raise ValueError(f"stop - start must be finite, got start={self.start!r}, stop={self.stop!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def _param_columns(values: list, n: int) -> list[list]:
    """``PARAM_COLUMNS`` of n rows from values (the fields, then eta): a list
    as it is, any other value at every row (alpha shown as its real part
    where that is all of it)."""
    g, alpha, *rest = values
    if not isinstance(alpha, list) and alpha.imag == 0:
        alpha = alpha.real
    return [v if isinstance(v, list) else [v] * n for v in (g, alpha, *rest)]


def _series_points(spec: SweepSpec, series: SweepSeries, grid: list[float]) -> tuple[_Series, list]:
    """The state of one series' points (``moments._Series``: the swept
    column the grid, every other column one value), validated, and the eta
    of each point.  Each bound of ``InterferometerParams`` is an interval
    and the grid runs from start to stop, so its two ends check every
    point; only where one fails is each point built in turn, to raise the
    first failing point's error."""
    values = {name: getattr(spec.fixed, name) for name in _FIELDS}
    values["eta"] = spec.eta
    values.update(series.overrides)
    sweep_target = values.pop("sweep_target", None)
    target = spec.variable
    if target == "t_k":
        if sweep_target not in ("t1", "t2"):
            raise ValueError("t_k sweeps need a series sweep_target of t1 or t2")
        target = sweep_target
    args = [values.pop(name) for name in PARAM_COLUMNS]
    if values:
        raise TypeError(f"series overrides name no parameter: {sorted(values)}")
    i = PARAM_COLUMNS.index(target)
    try:  # before the columns read alpha's real and imaginary parts
        for value in (grid[0], grid[-1]):
            args[i] = value
            InterferometerParams(*args[:-1])
    except (TypeError, ValueError):
        for value in grid:
            args[i] = value
            InterferometerParams(*args[:-1])
        raise
    if target != "eta":  # eta is no field of InterferometerParams
        _check_number("eta", args[-1])
        math.isfinite(args[-1])  # a list raises TypeError here, as for the fields
    args[i] = grid
    eta = args.pop()
    return _Series(args, len(grid)), eta if isinstance(eta, list) else [eta] * len(grid)


_FLAG_BITS = {"divergent": 1, "degenerate": 2, "unbounded": 4}

# the flags cell of each combination of flag bits: names sorted, ";"-joined
_FLAG_TEXT = tuple(
    ";".join(sorted(name for name, bit in _FLAG_BITS.items() if bits & bit))
    for bits in range(8)
)


def _evaluate_series(points, etas: list[float], quantities: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Cells of each quantity and the flags cell of each point of a series:
    points is its state (``moments._Series``) or a list of points.

    Each quantity is evaluated over the whole series in one call on one
    state, and ``delta_phi_min`` first (one ``optimal_phase`` call), so its
    overflow is reported before any other quantity's.  A flagged point's
    cell is None.
    A value that is not finite where its status is ok means overflow.  A
    failing call is replayed one point at a time, so a series raises the
    ValueError met first in point order: ``delta_phi_min``'s, else the
    first failing point's first failing quantity's.
    """
    for eta in etas:
        if not 0.0 <= eta <= 1.0:  # false for NaN too
            raise ValueError(f"eta must be finite and lie in [0, 1], got {eta}")
    state = _series(points)  # read by every quantity's call
    n = len(state)
    if "delta_phi_min" in quantities:  # solved for the whole series before the rest
        try:
            optimum = _QUANTITY_TABLE["delta_phi_min"](state, etas)
        except ValueError:
            for i in range(n):  # raise the first point's own error
                optimal_phase([state.point(i)])
            raise
    bits = np.zeros(n, dtype=int)
    cells = {}
    try:
        for q in quantities:
            values, status = optimum if q == "delta_phi_min" else _QUANTITY_TABLE[q](state, etas)
            values = np.asarray(values, dtype=float)
            flagged = np.zeros(n, dtype=bool)
            if status is not None:
                for name in ("divergent", "degenerate"):
                    hit = status == name
                    bits |= _FLAG_BITS[name] * hit
                    flagged |= hit
            overflow = ~(flagged | np.isfinite(values))
            if q == "qcrb_lossy":  # an infinite bound is the documented "unbounded"
                inf = overflow & np.isinf(values)
                bits |= _FLAG_BITS["unbounded"] * inf
                overflow &= ~inf
            if overflow.any():
                i = int(np.argmax(overflow))
                p, eta = state.point(i), etas[i]
                raise ValueError(
                    f"{q} = {float(values[i])} is not finite at g={p.g:g}, "
                    f"alpha={complex(p.alpha):g}, r={p.r:g}, t1={p.t1:g}, t2={p.t2:g}, "
                    f"phi={p.phi:g}, eta={eta:g}"
                )
            column = values.tolist()
            for i in np.flatnonzero(flagged).tolist():
                column[i] = None
            cells[q] = column
    except ValueError:
        if n > 1:
            for i in range(n):
                _evaluate_series([state.point(i)], etas[i : i + 1], quantities)
        raise
    return cells, [_FLAG_TEXT[b] for b in bits.tolist()]


@dataclass(frozen=True)
class SweepResult:
    """A sweep's output by columns.

    ``series`` holds one entry per series, in sweep order: one list per
    name of ``columns``, each with one cell per grid point.
    """

    columns: tuple[str, ...]
    series: tuple[tuple[list, ...], ...]

    def __len__(self) -> int:
        return sum(len(cells[0]) for cells in self.series)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep; series-major, grid-minor row order, deterministic.

    All series are one ``_evaluate_series`` call on their joined state;
    where it raises, they are replayed one at a time, so the sweep raises
    the first failing series' error.  Every series holds the one grid list.
    """
    grid = spec.grid().tolist()
    try:
        parts = [_series_points(spec, s, grid) for s in spec.series]
        state = _joined([state for state, _ in parts])
        etas = list(chain.from_iterable(etas for _, etas in parts))
        cells, flags = _evaluate_series(state, etas, spec.quantities)
    except (TypeError, ValueError):
        for s in spec.series:
            _evaluate_series(*_series_points(spec, s, grid), spec.quantities)
        raise
    series, start = [], 0
    for s, (state, etas) in zip(spec.series, parts):
        n = len(state)
        rows = slice(start, start + n)
        series.append((
            [s.label] * n, *_param_columns([*state.columns, etas], n),
            *(cells[q][rows] for q in spec.quantities), flags[rows],
        ))
        start += n
    return SweepResult(tuple(sweep_columns(spec)), tuple(series))


_NUMBER_FORMAT = ".15g"


def sweep_columns(spec: SweepSpec) -> list[str]:
    return ["series", *PARAM_COLUMNS, *spec.quantities, "flags"]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):  # RFC 4180: quoted where needed, its quotes doubled
        return '"' + value.replace('"', '""') + '"' if any(c in value for c in ',"\n\r') else value
    if isinstance(value, (float, complex)):  # infinities format as inf / -inf
        return format(value, _NUMBER_FORMAT)
    return str(value)


def json_value(value):
    """A cell as strict JSON: infinities as strings, complex as [re, im]."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, complex):
        return value.real if value.imag == 0 else [value.real, value.imag]
    return value


def _column_text(values: list):
    """``_format_cell`` of each value of one column: one text where every
    cell reads alike, else the list of the cells' texts."""
    first = values[0]
    kinds = set(map(type, values))
    if kinds == {float}:
        # equal floats format alike, but for the signs of zero: -0.0 == 0.0
        if values.count(first) == len(values) and (
            first or array("d", values).tobytes() == array("d", [first]).tobytes() * len(values)
        ):
            return format(first, _NUMBER_FORMAT)
        # float.__format__ spares format()'s dispatch: the same text, faster
        return list(map(float.__format__, values, repeat(_NUMBER_FORMAT)))
    if kinds <= {str, type(None)}:  # labels and flags: each distinct value once
        texts = {v: _format_cell(v) for v in dict.fromkeys(values)}
        return texts[first] if len(texts) == 1 else list(map(texts.__getitem__, values))
    if kinds == {float, type(None)}:  # flagged cells among floats
        return ["" if v is None else float.__format__(v, _NUMBER_FORMAT) for v in values]
    return list(map(_format_cell, values))


def render_csv(result: SweepResult) -> str:
    """The CSV text, each series through one row template: a column constant
    within the series is formatted once, into the template's pieces, and a
    column list several series hold (the grid) once per render."""
    held = Counter(id(c) for cells in result.series for c in cells)
    shared = {}
    chunks = [",".join(result.columns) + "\n"]
    for cells in result.series:
        if not cells[0]:
            continue
        # a row is pieces[0], filled[0][i], pieces[1], ..., filled[-1][i], pieces[-1]
        pieces, filled = [""], []
        for c in cells:
            text = shared.get(id(c))
            if text is None:
                text = _column_text(c)
                if held[id(c)] > 1:
                    shared[id(c)] = text
            if isinstance(text, str):
                pieces[-1] += text + ","
            else:
                filled.append(text)
                pieces.append(",")
        pieces[-1] = pieces[-1][:-1] + "\n"
        row = [repeat(pieces[0], len(cells[0]))]
        for texts, piece in zip(filled, pieces[1:]):
            row += (texts, repeat(piece))
        chunks.append("".join(chain.from_iterable(zip(*row))))
    return "".join(chunks)


def render_jsonl(result: SweepResult) -> str:
    out = [
        json.dumps(dict(zip(result.columns, map(json_value, row))), allow_nan=False)
        for cells in result.series
        for row in zip(*cells)
    ]
    return "\n".join(out) + "\n"


def write_sweep(spec: SweepSpec, path: str, fmt: str = "csv") -> SweepResult:
    result = run_sweep(spec)
    # called by name, not through a lookup table, so a wrapper installed on
    # this module's render_csv / render_jsonl sees the call
    if fmt == "csv":
        text = render_csv(result)
    elif fmt == "jsonl":
        text = render_jsonl(result)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return result


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
