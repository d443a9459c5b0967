"""The earlier row route of sweep output, for byte comparison with the package.

A sweep was a list of row dicts: ``run_sweep`` built one per grid point
(``point_row``'s parameter columns, the quantity cells, then the series
label and flags), ``render_csv`` read them back a column at a time in
blocks of 256 rows, whatever the series, and ``render_jsonl`` dumped one
dict per row.  ``point`` printed ``point_row`` of its point as JSON.  The
package now keeps a sweep's columns from evaluation to output, and a
series' parameters as columns too; these helpers keep the old route so the
tests can hold the new one to its bytes.  ``series_points`` builds one
``InterferometerParams`` per grid point, as the package did; only
evaluation (``_evaluate_series`` of those points) comes from the package.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

from su11lso.moments import InterferometerParams
from su11lso.sweeps import _FIELDS, _evaluate_series, sweep_columns


def point_row(params, eta, values) -> dict:
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


def series_points(spec, series) -> tuple[list, list[float]]:
    """The parameters and the eta of each grid point of one series."""
    values = {name: getattr(spec.fixed, name) for name in _FIELDS}
    values["eta"] = spec.eta
    values.update(series.overrides)
    sweep_target = values.pop("sweep_target", None)
    target = spec.variable
    if target == "t_k":
        if sweep_target not in ("t1", "t2"):
            raise ValueError("t_k sweeps need a series sweep_target of t1 or t2")
        target = sweep_target
    eta = values.pop("eta")
    args = [values.pop(name) for name in _FIELDS]
    if values:
        raise TypeError(f"series overrides name no parameter: {sorted(values)}")
    grid = spec.grid().tolist()
    if target == "eta":
        return [InterferometerParams(*args)] * len(grid), grid
    i = _FIELDS.index(target)
    points = []
    for value in grid:
        args[i] = value
        points.append(InterferometerParams(*args))
    return points, [eta] * len(grid)


def run_sweep(spec) -> list[dict]:
    rows = []
    for series in spec.series:
        points, etas = series_points(spec, series)
        cells, flags = _evaluate_series(points, etas, spec.quantities)
        columns = [cells[q] for q in spec.quantities]
        for params, eta, flag, *values in zip(points, etas, flags, *columns):
            row = {"series": series.label, **point_row(params, eta, zip(spec.quantities, values))}
            row["flags"] = flag
            rows.append(row)
    return rows


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return f'"{value}"' if ("," in value or '"' in value) else value
    if isinstance(value, (float, complex)):
        return format(value, ".15g")
    return str(value)


def json_value(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, complex):
        return value.real if value.imag == 0 else [value.real, value.imag]
    return value


def _format_column(values: list) -> list:
    kinds = set(map(type, values))
    if kinds == {float}:
        if values[0] != 0.0 and values.count(values[0]) == len(values):
            return [format(values[0], ".15g")] * len(values)
        return list(map(format, values, repeat(".15g")))
    if kinds == {str} and values.count(values[0]) == len(values):
        return [format_cell(values[0])] * len(values)
    return list(map(format_cell, values))


BLOCK = 256


def render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for start in range(0, len(rows), BLOCK):
        block = rows[start : start + BLOCK]
        cells = [_format_column(list(map(dict.get, block, repeat(c)))) for c in columns]
        lines += map(",".join, zip(*cells)) if cells else [""] * len(block)
    return "\n".join(lines) + "\n"


def render_jsonl(rows: list[dict], columns: list[str]) -> str:
    out = [
        json.dumps({c: json_value(row.get(c)) for c in columns}, allow_nan=False)
        for row in rows
    ]
    return "\n".join(out) + "\n"


def sweep_text(spec, fmt: str) -> str:
    """A sweep's CSV or JSON-lines text by the row route."""
    render = render_csv if fmt == "csv" else render_jsonl
    return render(run_sweep(spec), sweep_columns(spec))


def point_json(params, eta, quantities) -> str:
    """``su11lso point``'s JSON line (without its newline) by the row route."""
    cells, flags = _evaluate_series([params], [eta], quantities)
    values = {q: cells[q][0] for q in quantities}
    payload = {k: json_value(v) for k, v in point_row(params, eta, values).items()}
    payload["flags"] = flags[0].split(";") if flags[0] else []
    return json.dumps(payload, allow_nan=False)
