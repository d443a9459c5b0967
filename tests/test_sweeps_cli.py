"""Sweep engine, figure presets, output formats, and the CLI surface."""

import contextlib
import csv
import inspect
import io
import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from su11lso.cli import main
from su11lso import cli, crosscheck, sweeps
from su11lso.crosscheck import CellResult, CrossCheckResult
from su11lso.errors import DegenerateConfigurationError, DivergentSensitivityError
from su11lso.metrology import (
    optimal_phase,
    phase_sensitivity,
    qfi_ideal,
    qfi_lossy,
    sql_hl,
    total_photon_number,
)
from su11lso.moments import InterferometerParams
from su11lso.sweeps import (
    FIGURE_PRESETS,
    QUANTITIES,
    R_SERIES,
    SWEEP_VARIABLES,
    SweepResult,
    SweepSeries,
    SweepSpec,
    figure_preset,
    r_series,
    _format_cell,
    render_csv,
    run_sweep,
    sweep_columns,
    write_sweep,
)

import row_route


def spec_(variable="phi", start=0.1, stop=1.0, count=5, quantities=("delta_phi",), **kw):
    return SweepSpec(
        variable=variable,
        start=start,
        stop=stop,
        count=count,
        fixed=InterferometerParams(g=1, alpha=1, r=0.3),
        quantities=quantities,
        **kw,
    )


def column(result, name):
    """One column of a sweep result over every series, in row order."""
    i = result.columns.index(name)
    return [value for cells in result.series for value in cells[i]]


class TestSweepSpec:
    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="variable"):
            spec_(variable="banana")

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError, match="quantities"):
            spec_(quantities=("delta_phi", "entropy"))

    def test_rejects_degenerate_range(self):
        for kw, match in [
            ({"start": 1.0, "stop": 0.5}, "start below stop"),
            ({"count": 1}, "count must be at least 2"),
            ({"start": -math.inf, "stop": 0.0}, "start and stop must be finite"),
            # a span that overflows, where np.linspace would warn and fill nan
            ({"start": -1e308, "stop": 1e308}, "stop - start must be finite"),
            # counts np.linspace cannot take
            ({"count": 3.5}, r"count must be an integer, got 3\.5"),
            ({"count": 3.0}, r"count must be an integer, got 3\.0"),
            ({"series": ()}, "at least one series"),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=match):
                    spec_(**kw)

    @given(
        start=st.floats(-1e300, 1e300),
        stop=st.floats(-1e300, 1e300),
        count=st.integers(2, 2000),
    )
    @example(start=0.5, stop=1.5, count=20)
    @example(start=0.0, stop=math.nextafter(1.0, 2.0), count=3)
    @example(start=math.nextafter(1.0, 0.0), stop=math.nextafter(1.0, 2.0), count=1000)
    @example(start=-1e-310, stop=5e-324, count=2000)
    @settings(max_examples=300, deadline=None)
    def test_grid_runs_from_start_to_stop(self, start, stop, count):
        # the parameter bounds are intervals, so a sweep checks its grid's two
        # ends alone: that holds only if no point lies outside them
        assume(start < stop)
        grid = spec_(start=start, stop=stop, count=count).grid().tolist()
        assert len(grid) == count and grid[0] == start and grid[-1] == stop
        assert all(start <= x <= stop for x in grid)

    def test_rejects_override_naming_no_parameter(self):
        spec = spec_(series=(SweepSeries("typo", {"gain": 1.0}),))
        with pytest.raises(TypeError, match=r"name no parameter: \['gain'\]"):
            run_sweep(spec)

    @pytest.mark.parametrize("alpha", ["1", None])
    def test_rejects_override_with_non_number_alpha(self, alpha):
        # the parameter check's own TypeError, not one from reading alpha.imag
        with pytest.raises(TypeError) as expected:
            InterferometerParams(g=1.0, alpha=alpha, r=0.0)
        spec = spec_(series=(SweepSeries("bad", {"alpha": alpha}),))
        with pytest.raises(TypeError) as raised:
            run_sweep(spec)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "overrides, eta, message",
        [
            ({"r": True}, 1.0, "r must be a number, not bool"),
            ({"g": np.array([0.5])}, 1.0, "g must be a number, not ndarray"),
            ({"alpha": np.array(1j)}, 1.0, "alpha must be a number, not ndarray"),
            ({"t2": np.bool_(False)}, 1.0, "t2 must be a number, not bool"),
            ({"eta": True}, 1.0, "eta must be a number, not bool"),
            ({"eta": np.array([0.5])}, 1.0, "eta must be a number, not ndarray"),
            ({}, False, "eta must be a number, not bool"),
        ],
        ids=["bool-r", "array-g", "0-d-alpha", "numpy-bool-t2", "bool-eta", "array-eta",
             "bool-spec-eta"],
    )
    def test_rejects_bool_and_array_values(self, overrides, eta, message):
        # a bool or an array would compare as a number; a valid series first
        spec = spec_(series=(SweepSeries("ok"), SweepSeries("bad", overrides)), eta=eta,
                     quantities=("qfi_lossy",))
        with pytest.raises(TypeError) as raised:
            run_sweep(spec)
        assert str(raised.value) == message

    @pytest.mark.parametrize("etas", [[0.5, 0.6, 0.7], [0.5, 0.6]], ids=["per-point", "short"])
    @pytest.mark.parametrize("where", ["override", "spec"])
    def test_rejects_list_valued_eta(self, where, etas):
        # a list is no eta column: it fails as a list-valued r does, before
        # numpy reads it per point (or fails to broadcast it)
        with pytest.raises(TypeError) as expected:
            run_sweep(spec_(count=3, series=(SweepSeries("bad", {"r": [0.5]}),)))
        series = (SweepSeries("ok"), SweepSeries("bad", {"eta": etas} if where == "override" else {}))
        spec = spec_(count=3, series=series, quantities=("qfi_lossy",),
                     **({"eta": etas} if where == "spec" else {}))
        with pytest.raises(TypeError) as raised:
            run_sweep(spec)
        assert str(raised.value) == str(expected.value) == "must be real number, not list"


class TestRunSweep:
    def test_row_count_and_order(self):
        series = tuple(SweepSeries(f"r={r:g}", {"r": r}) for r in (0.0, 0.5))
        spec = spec_(count=4, series=series)
        result = run_sweep(spec)
        assert len(result) == 8
        assert result.columns == tuple(sweep_columns(spec))
        # one entry per series, one list per column
        assert [len(cells) for cells in result.series] == [len(result.columns)] * 2
        assert column(result, "series") == ["r=0"] * 4 + ["r=0.5"] * 4
        assert column(result, "r") == [0.0] * 4 + [0.5] * 4
        phi = column(result, "phi")
        assert phi[0] == pytest.approx(0.1)
        assert phi[3] == pytest.approx(1.0)

    def test_divergent_points_flagged_not_dropped(self):
        result = run_sweep(spec_(variable="phi", start=0.0, stop=1.0, count=3))
        assert len(result) == 3
        flags, delta = column(result, "flags"), column(result, "delta_phi")
        assert flags[0] == "divergent"
        assert delta[0] is None
        assert flags[1] == ""
        assert delta[1] > 0

    def test_series_optimum_matches_point_optimum(self):
        # one optimal_phase call solves the series; alpha = 0 is divergent there
        result = run_sweep(
            spec_(variable="alpha", start=0.0, stop=1.0, count=5, quantities=("delta_phi_min",))
        )
        rows = list(zip(*(column(result, c) for c in ("alpha", "delta_phi_min", "flags"))))
        assert rows[0][1:] == (None, "divergent")
        for alpha, best, flags in rows[1:]:
            p = InterferometerParams(g=1, alpha=alpha, r=0.3)
            assert flags == ""
            assert best == optimal_phase(p).delta_phi_min

    def test_eta_sweep_hits_exact_limits(self):
        result = run_sweep(
            spec_(variable="eta", start=0.0, stop=1.0, count=3, quantities=("qfi_lossy",))
        )
        p = InterferometerParams(g=1, alpha=1, r=0.3)
        fl = column(result, "qfi_lossy")
        assert fl[0] == 0.0
        assert fl[2] == qfi_ideal(p).fisher

    def test_t_k_sweep_routes_to_designated_loss(self):
        series = (
            SweepSeries("internal", {"sweep_target": "t1"}),
            SweepSeries("external", {"sweep_target": "t2"}),
        )
        result = run_sweep(
            spec_(variable="t_k", start=0.5, stop=1.0, count=2, series=series,
                  quantities=("N",))
        )
        t1, t2 = column(result, "t1"), column(result, "t2")
        assert t1[0] == 0.5 and t2[0] == 1.0
        assert t2[2] == 0.5 and t1[2] == 1.0


_MISSING = object()

# every kind of float the fast path of a float column must format as
# _format_cell does: subnormals, signed zeros, infinities, nan of either sign
_FLOAT_CELLS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([
        0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, -2.5e-310,
        2.2250738585072014e-308, 1.7976931348623157e308,
    ]),
)

_CSV_CELLS = st.one_of(
    _FLOAT_CELLS,
    st.builds(complex, st.floats(allow_nan=False), st.sampled_from([0.0, -0.0])),
    st.complex_numbers(),
    st.booleans(),
    st.integers(),
    st.none(),
    st.text(alphabet=' ,"ab', max_size=4),
    st.just(_MISSING),
)


@st.composite
def _csv_tables(draw):
    """Series of row dicts, and their columns.  A column of a series is
    often constant but for one cell, and often all floats."""
    columns = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    series = []
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.integers(0, 6))
        rows = [{} for _ in range(count)]
        for c in columns:
            cells = draw(st.sampled_from([_CSV_CELLS, _FLOAT_CELLS]))
            if draw(st.booleans()):
                column = [draw(cells)] * count
                if count and draw(st.booleans()):
                    column[draw(st.integers(0, count - 1))] = draw(cells)
            else:
                column = [draw(cells) for _ in range(count)]
            for row, value in zip(rows, column):
                if value is not _MISSING:
                    row[c] = value
        series.append(rows)
    return series, columns


def table_result(series, columns) -> SweepResult:
    """A SweepResult of series of row dicts; a cell a row lacks is None."""
    return SweepResult(
        tuple(columns),
        tuple(tuple([row.get(c) for row in rows] for c in columns) for rows in series),
    )


class TestCsv:
    def test_fifteen_significant_digits(self):
        rows = [{"series": "", "g": 1.0, "alpha": 1.0, "r": 0.0, "t1": 1.0,
                 "t2": 1.0, "phi": 1 / 3, "eta": 1.0, "N": math.pi * 100, "flags": ""}]
        text = render_csv(table_result([rows], ["phi", "N", "flags"]))
        assert "0.333333333333333" in text
        assert "314.159265358979" in text

    def test_infinity_and_empty_cells(self):
        rows = [{"phi": 0.0, "qcrb_lossy": math.inf, "delta_phi": None, "flags": "unbounded"}]
        text = render_csv(table_result([rows], ["phi", "qcrb_lossy", "delta_phi", "flags"]))
        assert text.splitlines()[1] == "0,inf,,unbounded"

    def test_cell_types_format_as_before(self):
        # exact floats take the fast path; numpy floats, complexes and ints
        # keep the general formatter's output
        rows = [{"a": 1 / 3, "b": np.float64(1 / 3), "c": complex(0.5, -0.25), "d": 7}]
        text = render_csv(table_result([rows], ["a", "b", "c", "d"]))
        assert text.splitlines()[1] == "0.333333333333333,0.333333333333333,0.5-0.25j,7"

    def test_quotes_cells_with_commas(self):
        rows = [{"series": "a,b", "flags": ""}]
        assert render_csv(table_result([rows], ["series", "flags"])).splitlines()[1] == '"a,b",'

    def test_labels_round_trip_through_csv_reader(self):
        # a quote is doubled, and a line break stays inside its quoted cell
        labels = ('a"b', "two\nlines", 'c,"d"\r')
        spec = spec_(count=3, series=tuple(SweepSeries(label, {}) for label in labels))
        result = run_sweep(spec)
        rows = list(csv.reader(io.StringIO(render_csv(result), newline="")))
        assert rows[0] == list(result.columns)
        assert [row[0] for row in rows[1:]] == [label for label in labels for _ in range(3)]
        assert all(len(row) == len(result.columns) for row in rows)

    @settings(max_examples=300, deadline=None)
    @given(table=_csv_tables())
    @example(table=([[{"a": 0.0}, {"a": -0.0}, {"a": 0.0}]], ["a"]))
    @example(table=([[{"a": -0.0}, {"a": -0.0}, {"a": 0.0}]], ["a"]))
    @example(table=([[{"a": -0.0}, {"a": -0.0}]], ["a"]))
    @example(table=([[{"a": 2.5}, {"a": 2.5}, {}]], ["a"]))
    @example(table=([[{"a": math.nan}, {"a": math.nan}, {"a": float("nan")}]], ["a"]))
    @example(table=([[{"a": v} for v in (5e-324, -5e-324, 0.0, -0.0, math.inf, -math.inf,
                                         math.nan, -math.nan)]], ["a"]))
    @example(table=([[{"a": 5e-324}] * 3, [{"a": -math.inf}] * 3, [{"a": -math.nan}] * 2], ["a"]))
    @example(table=([[{"a": 1.0}, {"a": 1}, {"a": True}, {"a": 1 + 0j}]], ["a"]))
    @example(table=([[{"a": complex(1, 0.0)}, {"a": complex(1, -0.0)}]], ["a"]))
    @example(table=([[{"a": 'x,"y'}, {"a": 'x,"y'}]], ["a", "b"]))
    @example(table=([[]], ["a", "b"]))
    # series longer than one block of rows formatted together, and a
    # constant zero column whose sign changes from one series to the next
    @example(table=([[{"a": 0.5, "b": "x"}] * 300 + [{"a": -0.0}] + [{"a": 0.5}] * 300],
                    ["a", "b"]))
    @example(table=([[{"a": i / 7, "b": 2.0} for i in range(1000)]], ["b", "a"]))
    @example(table=([[{"a": -0.0}] * 300, [{"a": 0.0}] * 3, [{"a": -0.0}] * 2], ["a"]))
    def test_column_formatting_matches_each_cell(self, table):
        series, columns = table
        lines = [",".join(columns)]
        rows = [row for rows in series for row in rows]
        lines += [",".join(_format_cell(row.get(c)) for c in columns) for row in rows]
        assert render_csv(table_result(series, columns)) == "\n".join(lines) + "\n"


CAPTION_TABLE = {
    # preset: (fixed g, fixed alpha, fixed (t1, t2), eta, swept, quantities)
    "fig2": (1.0, 1.0, (1.0, 1.0), 1.0, "phi", ("delta_phi",)),
    "fig3": (None, 1.0, (1.0, 1.0), 1.0, "g", ("delta_phi_min",)),
    "fig4": (1.0, None, (1.0, 1.0), 1.0, "alpha", ("delta_phi_min",)),
    "fig5": (1.0, 1.0, None, 1.0, "t_k", ("delta_phi_min",)),
    "fig6a": (1.0, 1.0, (1.0, 1.0), 1.0, "phi", ("delta_phi", "sql", "hl")),
    "fig6b": (1.0, 1.0, (0.5, 0.5), 1.0, "phi", ("delta_phi", "sql", "hl")),
    "fig7a": (None, 1.0, (1.0, 1.0), 1.0, "g", ("qfi",)),
    "fig7b": (1.0, None, (1.0, 1.0), 1.0, "alpha", ("qfi",)),
    "fig8a": (None, 1.0, (1.0, 1.0), 1.0, "g", ("qcrb",)),
    "fig8b": (1.0, None, (1.0, 1.0), 1.0, "alpha", ("qcrb",)),
    "fig10": (1.0, 1.0, (1.0, 1.0), None, "eta", ("qfi_lossy", "qcrb_lossy")),
    "fig11a": (None, 1.0, (1.0, 1.0), 0.5, "g", ("qfi_lossy",)),
    "fig11b": (1.0, None, (1.0, 1.0), 0.5, "alpha", ("qfi_lossy",)),
}


class TestFigurePresets:
    def test_every_preset_has_a_caption_row(self):
        assert set(FIGURE_PRESETS) == set(CAPTION_TABLE)

    @pytest.mark.parametrize("name", sorted(CAPTION_TABLE))
    def test_preset_matches_caption_parameters(self, name):
        g, alpha, ts, eta, var, quantities = CAPTION_TABLE[name]
        spec = figure_preset(name)
        assert spec.variable == var
        assert spec.quantities == quantities
        if g is not None and var != "g":
            assert spec.fixed.g == g
        if alpha is not None and var != "alpha":
            assert spec.fixed.alpha == alpha
        if ts is not None and var not in ("t1", "t2", "t_k"):
            assert (spec.fixed.t1, spec.fixed.t2) == ts
        if eta is not None and var != "eta":
            assert spec.eta == eta
        # the squeezing family of curves is shared across figures
        labels = [s.label for s in spec.series]
        for r in R_SERIES:
            assert any(f"r={r:g}" in lab for lab in labels)

    def test_fig2_row_count(self):
        spec = figure_preset("fig2", points=200)
        result = run_sweep(spec)
        assert len(result) == 4 * 200
        assert [len(cells[0]) for cells in result.series] == [200] * 4

    def test_fig5_has_internal_and_external_series(self):
        spec = figure_preset("fig5")
        labels = [s.label for s in spec.series]
        assert sum("internal" in lab for lab in labels) == 4
        assert sum("external" in lab for lab in labels) == 4

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            figure_preset("fig99")


class TestFigureTrends:
    def test_fig10_monotone_in_eta(self):
        result = run_sweep(figure_preset("fig10", points=21))
        assert [cells[0][0] for cells in result.series] == [f"r={r:g}" for r in R_SERIES]
        i, j = result.columns.index("qfi_lossy"), result.columns.index("qcrb_lossy")
        for cells in result.series:
            fl = cells[i]
            assert all(b >= a - 1e-12 for a, b in zip(fl, fl[1:]))
            qc = cells[j]
            assert all(b <= a + 1e-12 for a, b in zip(qc, qc[1:]))

    def test_fig7_monotone_in_gain_and_amplitude(self):
        for name in ("fig7a", "fig7b"):
            result = run_sweep(figure_preset(name, points=25))
            assert [cells[0][0] for cells in result.series] == [f"r={r:g}" for r in R_SERIES]
            i = result.columns.index("qfi")
            for cells in result.series:
                vals = [v for v in cells[i] if v is not None]
                assert all(b > a for a, b in zip(vals, vals[1:])), name


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "su11lso", *args], capture_output=True, text=True
    )


class TestCli:
    def test_point_json(self):
        proc = run_cli("point", "--g", "1", "--alpha", "1", "--r", "0.6",
                       "--phi", "0.3", "--quantities", "delta_phi,N,qfi")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["delta_phi"] > 0
        assert payload["N"] == pytest.approx(
            13.57373922947072, rel=1e-12
        )
        assert payload["flags"] == []

    def test_point_divergent_exit_code(self):
        proc = run_cli("point", "--alpha", "0", "--quantities", "delta_phi")
        assert proc.returncode == 2
        assert "divergent" in json.loads(proc.stdout)["flags"]

    def test_point_optimum_overflow_is_invalid_input(self):
        # no candidate phase is finite at r = 354.5 because the statistics
        # overflow, so the point is invalid input, not divergent
        proc = run_cli("point", "--r", "354.5", "--phi", "0.5", "--quantities", "delta_phi_min")
        assert proc.returncode == 1
        assert proc.stderr == (
            "invalid input: homodyne statistics overflow at g=1, alpha=1+0j, r=354.5\n"
        )

    @pytest.mark.parametrize(
        "r, message",
        [
            ("100", "homodyne variance cancels to <= 0 at g=1, alpha=1+0j, r=100"),
            ("300", "homodyne variance cancels to <= 0 at g=1, alpha=1+0j, r=300"),
        ],
    )
    def test_point_optimum_at_strong_squeezing_is_invalid_input(self, r, message):
        # r = 100: the variance cancels near pi/2, where delta_phi_min read 0.0;
        # r = 300: likewise, once the quartic's scaled products find that root
        # (unscaled, they overflowed, and the optimum read the bracket end)
        proc = run_cli("point", "--r", r, "--quantities", "delta_phi_min")
        assert proc.returncode == 1
        assert proc.stderr == f"invalid input: {message}\n"

    def test_point_lossless_fisher_limit(self):
        proc = run_cli("point", "--g", "1", "--alpha", "1", "--r", "0",
                       "--eta", "1", "--quantities", "qfi_lossy,qfi")
        payload = json.loads(proc.stdout)
        assert payload["qfi_lossy"] == payload["qfi"]

    def test_import_leaves_the_oracle_unloaded(self):
        # point, sweep and figure never run the Fock oracle, so importing the
        # front end loads neither it nor scipy
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, su11lso.cli; sys.exit('scipy' in sys.modules or 'su11lso.fock' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_figure_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            proc = run_cli("figure", "fig2", "--points", "40", "--output", str(out))
            assert proc.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--var", "phi", "--start", "0.1", "--stop", "1",
            "--count", "5", "--quantities", "delta_phi,N",
            "--series-r", "0,0.5", "--output", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 10
        header = lines[0].split(",")
        assert header[0] == "series" and header[-1] == "flags"
        assert "delta_phi" in header and "N" in header

    def test_sweep_jsonl(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        proc = run_cli(
            "sweep", "--var", "eta", "--start", "0", "--stop", "1",
            "--count", "3", "--quantities", "qcrb_lossy", "--output", str(out),
            "--format", "jsonl",
        )
        assert proc.returncode == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["qcrb_lossy"] == "inf"
        assert rows[0]["flags"] == "unbounded"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("--only", "fig99"), 2, "argument --only: invalid choice: 'fig99'"),
            (("--points", "1"), 1, "invalid input: count must be at least 2"),
        ],
    )
    def test_reproduce_figures_rejects_bad_input(self, tmp_path, argv, code, message):
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--outdir", str(tmp_path), *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_retired_opt_grid_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "opt_grid.cfg"
        cfg.write_text("opt_grid = 5\n")
        for argv in (
            ("point", "--quantities", "N"),
            ("sweep", "--var", "g", "--start", "0.1", "--stop", "1", "--count", "2",
             "--output", str(tmp_path / "s.csv")),
            ("figure", "fig3", "--points", "4", "--output", str(tmp_path / "f.csv")),
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--opt-grid", "5"])
            assert exc.value.code == 1
            assert "--opt-grid" in capsys.readouterr().err
            code, _, err = run_main("--config", str(cfg), *argv)
            assert code == 1
            assert "opt_grid" in err
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "f.csv").exists()

    def test_usage_error_exit_code(self):
        assert run_cli("sweep", "--var", "nope").returncode == 1
        assert run_cli("frobnicate").returncode == 1

    def test_sweep_var_omits_t_k(self, tmp_path, capsys):
        # a t_k sweep needs a per-series sweep_target, which no flag sets
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "t_k" not in capsys.readouterr().out
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--var", "t_k", "--start", "0.5", "--stop", "1", "--count", "2",
                  "--output", str(out)])
        assert exc.value.code == 1
        assert "invalid choice: 't_k'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_supplies_defaults(self, tmp_path):
        # one file serves every subcommand: figure's points and check's
        # tolerance are valid keys for point too
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("r = 0.6\nphi = 0.3\npoints = 4\ntolerance = 1e-6\n")
        with_cfg = run_cli("--config", str(cfg), "point", "--quantities", "N")
        explicit = run_cli("point", "--r", "0.6", "--phi", "0.3", "--quantities", "N")
        assert json.loads(with_cfg.stdout)["N"] == json.loads(explicit.stdout)["N"]
        override = run_cli("--config", str(cfg), "point", "--r", "0", "--quantities", "N")
        assert json.loads(override.stdout)["r"] == 0.0

    @pytest.mark.parametrize(
        "config, argv, code, expected",
        [
            # one-item lists and a single r curve
            ("alphas = 0.5\ngs = 0.5\nrs = 0.5\nts = 1\nphis = 0.8\n", ("check",), 0, "PASS"),
            ("series_r = 0.3\n", ("sweep", "--var", "phi", "--start", "0.1", "--stop", "1",
                                   "--count", "2", "--output", "{out}"), 0, ""),
            # printed as the flags print them, not as ints
            ("alpha = 1\neta = 1\n", ("point", "--quantities", "N"), 0,
             '"alpha": 1.0, "r": 0.0, "t1": 1.0, "t2": 1.0, "phi": 0.0, "eta": 1.0,'),
            ("points = 3.5\n", ("figure", "fig3", "--output", "{out}"), 1,
             "su11lso figure: error: argument --points: invalid int value: '3.5'"),
            ("g = abc\n", ("point",), 1,
             "su11lso point: error: argument --g: invalid float value: 'abc'"),
            # a value is checked by the flag that owns it, whichever command runs
            ("points = abc\n", ("point", "--quantities", "N"), 1,
             "su11lso figure: error: argument --points: invalid int value: 'abc'"),
        ],
        ids=["one-point-grid", "one-r-curve", "integer-values", "fractional-points", "word-g",
             "other-commands-value"],
    )
    def test_config_values_take_each_flags_type(self, tmp_path, config, argv, code, expected):
        cfg = tmp_path / "values.cfg"
        cfg.write_text(config)
        out = tmp_path / "out.csv"
        proc = run_cli("--config", str(cfg), *[a.format(out=out) for a in argv])
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert expected in (proc.stdout if code == 0 else proc.stderr)
        assert out.exists() == (code == 0 and "--output" in argv)

    def test_config_defaults_stay_with_their_call(self, tmp_path, monkeypatch):
        # one parser serves every call of a process; a --config call sets its
        # defaults on a parser of its own
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("r = 0.6\nphi = 0.3\n")
        code, stdout, _ = run_main("--config", str(cfg), "point", "--quantities", "N")
        assert code == 0
        assert (json.loads(stdout)["r"], json.loads(stdout)["phi"]) == (0.6, 0.3)
        for _ in range(2):
            code, stdout, _ = run_main("point", "--quantities", "N")
            assert code == 0
            assert (json.loads(stdout)["r"], json.loads(stdout)["phi"]) == (0.0, 0.0)
        assert len(builds) == 1

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("r = 0.6\nalpah = 2\n")
        code, stdout, err = run_main("--config", str(cfg), "point", "--quantities", "N")
        assert code == 1
        assert stdout == ""
        assert "alpah" in err

    def test_check_small_grid(self):
        proc = run_cli(
            "check", "--alphas", "0.5", "--gs", "0.6", "--rs", "0.4",
            "--ts", "1", "--phis", "0.8", "--tolerance", "1e-6",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout

    def test_bare_check_runs_the_cross_check_defaults(self, monkeypatch):
        # the default grid has one definition, run_cross_check's signature
        signature = inspect.signature(crosscheck.run_cross_check)
        calls = []

        def recording(**kwargs):
            bound = signature.bind(**kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return CrossCheckResult(tolerance=bound.arguments["rel_tol"])

        monkeypatch.setattr(crosscheck, "run_cross_check", recording)
        code, stdout, err = run_main("check")
        assert code == 0 and "PASS" in stdout, err
        (used,) = calls
        for name, param in signature.parameters.items():
            if name != "progress":  # DEFAULT_ALPHAS, ..., DEFAULT_MAX_DIM, rel_tol
                assert used[name] is param.default, name

    def test_check_zero_tolerance_fails(self):
        proc = run_cli(
            "check", "--alphas", "0.5", "--gs", "0.6", "--rs", "0.4",
            "--ts", "1", "--phis", "0.8", "--tolerance", "0",
        )
        assert proc.returncode == 3
        assert "FAIL" in proc.stdout

    @pytest.mark.parametrize(
        "flag,value,named",
        [
            ("--tolerance", "nan", "tolerance"),
            ("--tolerance", "-1", "tolerance"),
            ("--tolerance", "inf", "tolerance"),
            ("--max-dim", "0", "max_dim"),
            ("--alphas", ",", "alphas"),
            ("--phis", "", "phis"),
            ("--ts", ",", "t_pairs"),
            # grid points are checked before any oracle engine runs
            ("--alphas", "inf", "alpha must be finite"),
            ("--alphas", "nan", "alpha must be finite"),
            ("--alphas", "1e200", "alpha=1e+200"),
            ("--gs", "inf", "g must be finite"),
            ("--rs", "nan", "r must be finite"),
            ("--rs", "1e300", "r=1e+300"),
            ("--ts", "2", "transmittance t1"),
            ("--phis", "nan", "phi must be finite"),
        ],
    )
    def test_check_rejects_invalid_argument(self, flag, value, named):
        grid = {"--alphas": "0.5", "--gs": "0.6", "--rs": "0.4", "--ts": "1", "--phis": "0.8"}
        grid[flag] = value
        code, stdout, err = run_main("check", *[tok for kv in grid.items() for tok in kv])
        assert code == 1
        assert stdout == ""
        assert named in err

    def test_check_rejects_a_repeated_grid_value(self, monkeypatch):
        # --ts 1,1 pairs t = 1 with itself four times, which would run and
        # count each of the point's cells four times over, and phase 0.8 twice
        engines = []
        monkeypatch.setattr(crosscheck, "SensitivityOracle", lambda *a, **kw: engines.append(a))
        code, stdout, err = run_main(
            "check", "--alphas", "0.5", "--gs", "0.5", "--rs", "0.5", "--ts", "1,1",
            "--phis", "0.8,0.8",
        )
        assert (code, stdout, engines) == (1, "", [])
        assert err == "invalid input: the t_pairs grid repeats (1.0, 1.0)\n"

    def test_check_names_a_start_grid_over_the_budget(self):
        # a valid point whose oracle cannot even start inside max_dim
        code, stdout, err = run_main(
            "check", "--alphas", "1e10", "--gs", "0.6", "--rs", "0.4", "--ts", "1", "--phis", "0.8"
        )
        assert code == 3
        assert stdout == ""
        assert "start grid" in err and "exceeds dim budget 1400000" in err

    def test_check_summary_reports_worst_margin(self):
        result = CrossCheckResult(tolerance=1e-6)
        for dev, flag in ((2e-8, ""), (5e-8, ""), (math.inf, "divergent")):
            result.cells.append(
                CellResult("N", 0.5, 0.5, 0.5, None, None, None, 1.0, 1.0, dev, flag)
            )
        assert "overall: PASS (tolerance 1e-06, worst margin 0.05," in result.summary_lines()[-1]
        result.tolerance = 0.0
        assert "overall: FAIL (tolerance 0, worst margin inf," in result.summary_lines()[-1]


def _stub_oracle(fisher, runs, slope=0.0):
    """A stand-in Fock oracle: the analytic N, the given F (the analytic one
    where None) and the given phase slope everywhere; it records each call
    in runs, as (alpha, the t1 groups it reads)."""

    class StubOracle:
        def __init__(self, alpha, g, r, **_):
            self.base = InterferometerParams(g=g, alpha=alpha, r=r)

        def photon_number(self):
            return total_photon_number(self.base)

        def fisher_pure(self):
            return qfi_ideal(self.base).fisher if fisher is None else fisher

        def quadrature_statistics(self, groups, phis):
            runs.append((self.base.alpha.real, tuple(groups)))
            return {
                (t1, t2, phi): (0.0, 1.0, slope)
                for t1, t2_values in groups.items() for t2 in t2_values for phi in phis
            }

    return StubOracle


# small grids the check command accepts: alpha = 0 and t1 = 0 have no phase
# slope, and near phi = pi/2 the homodyne variance cancels for r up to 120
_CHECK_GRIDS = st.fixed_dictionaries({
    "alphas": st.lists(st.one_of(st.just(0.0), st.floats(-3, 3)), min_size=1, max_size=2),
    "gs": st.lists(st.floats(0, 2), min_size=1, max_size=2),
    "rs": st.lists(st.one_of(st.floats(0, 2), st.floats(0, 120)), min_size=1, max_size=2),
    "t_pairs": st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0, 1)), st.floats(0, 1)), min_size=1, max_size=3
    ),
    "phis": st.lists(
        st.one_of(
            st.floats(0, math.pi), st.just(math.pi / 2),
            st.floats(math.pi / 2 - 1e-6, math.pi / 2 + 1e-6),
        ),
        min_size=1, max_size=3,
    ),
})


def _single_point_delta_phis(alphas, gs, rs, t_pairs, phis):
    """Each grid point's delta-phi from its own single-point call, keyed as
    the cells are, inf where that call finds no phase slope; None where a
    single-point N, F or delta-phi call raises ValueError, or where a grid
    axis repeats a value."""
    if any(v in axis[:i] for axis in (alphas, gs, rs, t_pairs, phis) for i, v in enumerate(axis)):
        return None
    delta_phis = {}
    try:
        for alpha in alphas:
            for g in gs:
                for r in rs:
                    base = InterferometerParams(g=g, alpha=alpha, r=r)
                    total_photon_number(base)
                    with contextlib.suppress(DegenerateConfigurationError):
                        qfi_ideal(base)
                    for t1, t2 in t_pairs:
                        for phi in phis:
                            p = base.replace(t1=t1, t2=t2, phi=phi)
                            try:
                                delta_phi = phase_sensitivity(p).delta_phi
                            except DivergentSensitivityError:
                                delta_phi = math.inf
                            delta_phis[p.alpha.real, g, r, t1, t2, phi] = delta_phi
    except ValueError:
        return None
    return delta_phis


class TestCheckVerdict:
    @pytest.mark.parametrize(
        "alpha, g, r, fisher, flag",
        [
            # the analytic route finds a phase slope, the oracle none
            ("0.5", "0.5", "0.5", None, "divergence-mismatch"),
            # vacuum: the analytic F is degenerate, the oracle's is not
            ("0", "0", "0", 1.0, "degeneracy-mismatch"),
        ],
        ids=["divergence", "degeneracy"],
    )
    def test_mismatch_fails_the_check(self, monkeypatch, alpha, g, r, fisher, flag):
        monkeypatch.setattr(crosscheck, "SensitivityOracle", _stub_oracle(fisher, []))
        result = crosscheck.run_cross_check(
            alphas=(float(alpha),), gs=(float(g),), rs=(float(r),), t_pairs=((1.0, 1.0),),
            phis=(0.8,),
        )
        assert [c.flag for c in result.cells if c.flag.endswith("mismatch")] == [flag]
        assert not result.passed
        assert result.summary_lines()[-1].startswith("overall: FAIL (")
        assert "mismatches 1," in result.summary_lines()[-1]
        code, stdout, err = run_main(
            "check", "--alphas", alpha, "--gs", g, "--rs", r, "--ts", "1,0.7", "--phis", "0.8"
        )
        assert code == 3
        assert "overall: FAIL (" in stdout
        # one progress line per (alpha, g, r, t1) group, on stderr only
        assert err.count(f"  checked alpha={alpha} g={g} r={r} t1=") == 2
        assert "checked" not in stdout

    @pytest.mark.parametrize(
        "t_pairs", [((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 1.0))],
        ids=["t1-0-last", "t1-0-first"],
    )
    def test_unconfirmed_divergent_group_runs_the_oracle(self, monkeypatch, t_pairs):
        # at t1 = 0 no phase reaches the output, so the analytic route is
        # divergent throughout; only the oracle can confirm it, in the one
        # call that reads the engine's other group too
        runs = []
        monkeypatch.setattr(crosscheck, "SensitivityOracle", _stub_oracle(None, runs))
        crosscheck.run_cross_check(
            alphas=(0.5,), gs=(0.5,), rs=(0.5,), t_pairs=t_pairs, phis=(0.8,)
        )
        assert [(alpha, sorted(t1s)) for alpha, t1s in runs] == [(0.5, [0.0, 1.0])]
        # the Fock oracle finds no slope there either
        monkeypatch.undo()
        result = crosscheck.run_cross_check(
            alphas=(0.5,), gs=(0.5,), rs=(0.5,), t_pairs=t_pairs, phis=(0.8,)
        )
        assert [c.flag for c in result.cells if c.t1 == 0.0] == ["divergent"]
        assert result.passed

    @pytest.mark.parametrize(
        "slope, flag", [(0.0, "divergent"), (1.0, "divergence-mismatch")],
        ids=["confirmed", "unconfirmed"],
    )
    def test_oracle_reads_every_divergent_group(self, monkeypatch, slope, flag):
        # alpha = 0: the analytic route finds no slope in any group, and one
        # oracle call per engine reads them all, so each group's flag is the
        # oracle's own verdict
        runs = []
        monkeypatch.setattr(crosscheck, "SensitivityOracle", _stub_oracle(None, runs, slope))
        result = crosscheck.run_cross_check(
            alphas=(0.0,), gs=(0.5, 1.0), rs=(0.5,),
            t_pairs=((1.0, 1.0), (0.7, 1.0), (0.4, 1.0)), phis=(0.8,),
        )
        assert runs == [(0.0, (1.0, 0.7, 0.4))] * 2
        assert [c.flag for c in result.cells if c.quantity == "delta_phi"] == [flag] * 6
        assert result.passed == (slope == 0.0)

    @pytest.mark.parametrize("phi", ["1e-4", "1e-6", "1e-8"])
    def test_near_stationary_phase_passes(self, phi):
        # near phi = 0 the slope is tiny, so only an exact oracle slope holds
        # the 1e-6 tolerance there
        code, stdout, _ = run_main(
            "check", "--alphas", "0.5", "--gs", "0.5", "--rs", "0.5", "--ts", "1,0.7", "--phis", phi
        )
        assert code == 0
        assert stdout.splitlines()[-1].startswith("overall: PASS (")

    @pytest.mark.parametrize("phi", ["1234567890123.4567", "1.2345e100"])
    def test_large_phase_passes(self, phi):
        # the oracle phases each level by e^{-i phi n_a}; built from n_a phi,
        # phi's rounding grew n_a-fold and failed the check at 1.2e12
        code, stdout, _ = run_main(
            "check", "--alphas", "0.5", "--gs", "0.5", "--rs", "0.5", "--ts", "1,0.7", "--phis", phi
        )
        assert code == 0
        assert stdout.splitlines()[-1].startswith("overall: PASS (")

    def test_escalating_engine_passes(self, monkeypatch):
        # the prep outgrows its start grid, and one read-out of the grown
        # prep serves both groups
        from su11lso import fock

        preps, reads = [], []
        prepare, evaluate = fock.prepared_state, fock.SensitivityOracle._evaluate_at_dims

        def preparing(alpha, g, r, d_a, d_b):
            preps.append((d_a, d_b))
            return prepare(alpha, g, r, d_a, d_b)

        def reading(engine, groups, pair, phi_values, d_a, d_b):
            reads.append((tuple(groups), d_a, d_b))
            return evaluate(engine, groups, pair, phi_values, d_a, d_b)

        monkeypatch.setattr(fock, "prepared_state", preparing)
        monkeypatch.setattr(fock.SensitivityOracle, "_evaluate_at_dims", reading)
        code, stdout, _ = run_main(
            "check", "--alphas", "0.5", "--gs", "1.2", "--rs", "0.3", "--ts", "1,0.7",
            "--phis", "0.8,1.5",
        )
        assert code == 0
        assert stdout.splitlines()[-1].startswith("overall: PASS (")
        start, *_, grown = preps
        assert grown != start and all(g >= s for g, s in zip(grown, start))
        assert reads == [((1.0, 0.7), *grown)]

    @pytest.mark.parametrize(
        "grid, message",
        [
            # cells carry alpha as a real number: 0.5j would read as alpha = 0
            ({"alphas": (0.5j,)}, r"alpha must be real, got .*j"),
            ({"alphas": (0.5, 1 + 1e-9j)}, r"alpha must be real, got .*j"),
            # the homodyne variance cancels near pi/2 at r = 100, though the
            # r = 0.5 engine before it would run
            (
                {"alphas": (1.0,), "gs": (1.0,), "rs": (0.5, 100.0), "phis": (math.pi / 2,)},
                r"^homodyne variance cancels to <= 0 at g=1, alpha=1\+0j, r=100$",
            ),
            # N and F are checked engine by engine: F overflows at the first
            # alpha before N does at the second
            (
                {"alphas": (3e153, 1e155), "gs": (0.6,), "rs": (0.4,)},
                r"^Fisher information overflows at g=0.6, alpha=3e\+153\+0j, r=0.4$",
            ),
            # a repeated value would run and count its cells twice; -0.0 == 0.0
            ({"alphas": (0.0, 0.5, -0.0)}, r"^the alphas grid repeats -0\.0$"),
            ({"rs": (0.5, 0.5)}, r"^the rs grid repeats 0\.5$"),
            ({"t_pairs": ((1.0, 1.0), (1, 1))}, r"^the t_pairs grid repeats \(1, 1\)$"),
            ({"phis": (0.8, 0.3, 0.8)}, r"^the phis grid repeats 0\.8$"),
        ],
        ids=[
            "imaginary", "second", "cancelled-variance", "first-overflow",
            "repeated-alpha", "repeated-r", "repeated-t-pair", "repeated-phi",
        ],
    )
    def test_rejected_before_any_engine(self, monkeypatch, grid, message):
        engines = []
        monkeypatch.setattr(
            crosscheck, "SensitivityOracle", lambda *a, **kw: engines.append(a)
        )
        defaults = dict(alphas=(0.5,), gs=(0.5,), rs=(0.5,), t_pairs=((1.0, 1.0),), phis=(0.8,))
        with pytest.raises(ValueError, match=message):
            crosscheck.run_cross_check(**{**defaults, **grid})
        assert engines == []

    @given(grid=_CHECK_GRIDS)
    @example(grid={  # the homodyne variance cancels at the second engine
        "alphas": [1.0], "gs": [1.0], "rs": [0.5, 100.0], "t_pairs": [(1.0, 1.0)],
        "phis": [math.pi / 2],
    })
    @example(grid={  # F overflows at the first engine, N at the second
        "alphas": [3e153, 1e155], "gs": [0.6], "rs": [0.4], "t_pairs": [(1.0, 1.0)],
        "phis": [0.8],
    })
    @example(grid={  # no phase slope: alpha = 0 throughout, t1 = 0 at alpha = 0.5
        "alphas": [0.0, 0.5], "gs": [0.5], "rs": [0.5], "t_pairs": [(1.0, 0.7), (0.0, 1.0)],
        "phis": [0.8, 1.5],
    })
    @settings(max_examples=60, deadline=None)
    def test_analytic_cells_are_single_point_calls(self, grid):
        # the grid's delta-phi cells come from one sequence call: it raises
        # where a single-point call would, before any engine, and otherwise
        # gives each cell that call's bits
        expected = _single_point_delta_phis(**grid)
        engines = []
        stub = _stub_oracle(1.0, [])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                crosscheck, "SensitivityOracle", lambda *a, **kw: engines.append(a) or stub(*a, **kw)
            )
            if expected is None:
                with pytest.raises(ValueError):
                    crosscheck.run_cross_check(**grid)
                assert engines == []
                return
            result = crosscheck.run_cross_check(**grid)
        cells = {
            (c.alpha, c.g, c.r, c.t1, c.t2, c.phi): c.analytic
            for c in result.cells if c.quantity == "delta_phi"
        }
        assert cells.keys() == expected.keys()
        assert all(cells[k].hex() == expected[k].hex() for k in cells), grid


def run_main(*args):
    """In-process CLI run: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


PARAM_FLAGS = ("g", "alpha", "r", "t1", "t2", "phi", "eta")


class TestInputDomain:
    @given(
        g=st.floats(0, 2),
        re_a=st.floats(-3, 3),
        im_a=st.floats(-3, 3),
        r=st.floats(0, 1.5),
        t1=st.floats(0, 1),
        t2=st.floats(0, 1),
        phi=st.floats(-10, 10),
        eta=st.floats(0, 1),
    )
    # subnormal phase coefficients (the optimum's quartic) and an N whose
    # reciprocal overflows (the Heisenberg benchmark)
    @example(g=0.0, re_a=2.7236848377039103e-261, im_a=0.0, r=1.0, t1=1.0,
             t2=4.411651276914472e-127, phi=0.0, eta=0.0)
    @example(g=0.0, re_a=0.0, im_a=0.0, r=3.993930816541486e-156, t1=0.0, t2=0.0,
             phi=0.0, eta=0.0)
    @settings(max_examples=60, deadline=None)
    def test_finite_point_gives_valid_json(self, g, re_a, im_a, r, t1, t2, phi, eta):
        values = dict(g=g, alpha=complex(re_a, im_a), r=r, t1=t1, t2=t2, phi=phi, eta=eta)
        code, out, _ = run_main(
            "point", *[f"--{k}={v!r}" for k, v in values.items()],
            "--quantities", ",".join(QUANTITIES),
        )
        assert code in (0, 2)
        payload = _strict_json(out)
        assert set(QUANTITIES) <= set(payload)

    @given(
        name=st.sampled_from(PARAM_FLAGS),
        value=st.sampled_from(["nan", "inf", "-inf"]),
        quantities=st.sampled_from(["delta_phi", "qfi_lossy", "delta_phi_min,N"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_finite_point_is_usage_error(self, name, value, quantities):
        code, out, err = run_main("point", f"--{name}={value}", "--quantities", quantities)
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value", [("r", "nan"), ("series-r", "0,nan"), ("eta", "inf"), ("stop", "inf")]
    )
    def test_non_finite_sweep_is_usage_error(self, tmp_path, flag, value):
        out = tmp_path / "sweep.csv"
        args = {"var": "phi", "start": "0.1", "stop": "1", "count": "3", flag: value}
        argv = [f"--{k}={v}" for k, v in args.items()]
        code, _, err = run_main("sweep", *argv, "--output", str(out))
        assert code == 1
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("--g", "800"), "g=800"),
            (("--alpha", "1e200"), "alpha=1e+200"),
            (("--r", "400", "--quantities", "delta_phi_min"), "r=400"),
        ],
    )
    def test_overflowing_point_names_the_parameter(self, argv, name):
        code, out, err = run_main("point", *argv)
        assert code == 1
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid input:") and name in lines[0]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--series-r", ","), "a sweep needs at least one series"),
            (("--start=-1e308", "--stop", "1e308"),
             "stop - start must be finite, got start=-1e+308, stop=1e+308"),
        ],
    )
    def test_rejected_sweep_writes_no_file(self, tmp_path, argv, message):
        # no header-only file, and no numpy warning before the message
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "su11lso", "sweep", "--var", "phi",
             "--start", "0", "--stop", "1", "--count", "3", *argv, "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"invalid input: {message}\n"
        assert not out.exists()

    def test_overflowing_sweep_names_the_quantity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_main(
            "sweep", "--var", "alpha", "--start", "1e150", "--stop", "1e200", "--count", "3",
            "--quantities", "N", "--output", str(out),
        )
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid input:")
        assert "photon number N" in lines[0] and "alpha=5e+199" in lines[0]
        assert not out.exists()

    def test_out_of_range_eta_is_usage_error(self):
        code, _, err = run_main("point", "--eta", "1.5", "--quantities", "qfi_lossy")
        assert code == 1
        assert "eta" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("point", "--eta", "2", "--quantities", "N"),
            ("point", "--eta", "-0.5", "--quantities", "delta_phi,sql"),
            ("sweep", "--var", "eta", "--start", "-1", "--stop", "1", "--count", "3",
             "--quantities", "N"),
            ("sweep", "--var", "phi", "--start", "0.1", "--stop", "1", "--count", "3",
             "--eta", "1.5", "--quantities", "delta_phi"),
        ],
    )
    def test_eta_outside_unit_interval_is_usage_error_for_any_quantity(self, tmp_path, argv):
        out = tmp_path / "sweep.csv"
        extra = ("--output", str(out)) if argv[0] == "sweep" else ()
        code, stdout, err = run_main(*argv, *extra)
        assert code == 1
        assert stdout == ""
        assert err.startswith("invalid input: eta must be finite and lie in [0, 1], got ")
        assert not out.exists()


ALL_QUANTITIES = ",".join(QUANTITIES)


class TestPointMatchesSweepRow:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--g", "1", "--alpha", "1", "--r", "0.6", "--phi", "0.3"),
            ("--g", "0.5", "--alpha", "0.7+0.3j", "--r", "0.2", "--t1", "0.8", "--t2", "0.6",
             "--phi", "1.2", "--eta", "0.3"),
            # divergent phase response, unbounded lossy bound
            ("--alpha", "0", "--phi", "0.4", "--eta", "0"),
            # vacuum in, nothing out: degenerate benchmarks
            ("--g", "0", "--alpha", "0", "--r", "0", "--phi", "0.4", "--eta", "0.5"),
        ],
    )
    def test_point_json_equals_first_sweep_row(self, tmp_path, flags):
        code, stdout, _ = run_main("point", *flags, "--quantities", ALL_QUANTITIES)
        point = json.loads(stdout)
        assert code == (2 if {"divergent", "degenerate"} & set(point["flags"]) else 0)
        out = tmp_path / "row.jsonl"
        sweep_code, _, err = run_main(
            "sweep", *flags, "--var", "phi", "--start", str(point["phi"]),
            "--stop", str(point["phi"] + 1),
            "--count", "2", "--quantities", ALL_QUANTITIES, "--format", "jsonl",
            "--output", str(out),
        )
        assert sweep_code == 0, err
        row = json.loads(out.read_text().splitlines()[0])
        assert row.pop("series") == ""
        assert row.pop("flags") == ";".join(point.pop("flags"))
        assert row == point

    def test_point_overflow_is_the_sweep_rows(self, tmp_path):
        # N, asked for first, overflows too; both solve delta_phi_min first
        flags = ("--g", "200", "--alpha", "1e100", "--quantities", "N,delta_phi_min")
        code, stdout, err = run_main("point", *flags)
        out = tmp_path / "row.csv"
        sweep_code, _, sweep_err = run_main(
            "sweep", *flags, "--var", "phi", "--start", "0", "--stop", "1", "--count", "2",
            "--output", str(out),
        )
        assert (code, stdout) == (1, "")
        assert (sweep_code, sweep_err) == (code, err)
        assert err == "invalid input: homodyne statistics overflow at g=200, alpha=1e+100+0j, r=0\n"
        assert not out.exists()


# rows per series of the long specs: more than the 256-row blocks the CSV
# was once formatted in
LONG_SERIES = 300


def _long_series_spec():
    """Long series, complex alpha, a constant -0.0 column (r = -0.0) and
    flagged rows (phi = 0 carries no information)."""
    series = tuple(SweepSeries(f"r={r!r}", {"r": r}) for r in (0.0, -0.0, 0.5))
    fixed = InterferometerParams(g=0.8, alpha=0.7 + 0.3j, r=0.0, t1=0.9)
    return SweepSpec("phi", 0.0, 3.0, LONG_SERIES, fixed, QUANTITIES, series, eta=0.6)


def _vacuum_spec():
    """Degenerate and divergent rows, an unbounded lossy bound (eta = 0),
    a complex alpha shown as its real part, and a duplicated quantity."""
    fixed = InterferometerParams(g=0.0, alpha=complex(-0.0, -0.0), r=0.0)
    return SweepSpec("eta", 0.0, 1.0, 5, fixed, (*QUANTITIES, "N"))


class TestRowRoute:
    """The columnar result renders to the earlier row route's bytes
    (``row_route``: a dict per row, CSV blocks of 256 rows across series)."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(_long_series_spec, id="long-series"),
            pytest.param(_vacuum_spec, id="vacuum"),
            pytest.param(lambda: figure_preset("fig5", points=LONG_SERIES), id="fig5-long"),
            *(pytest.param(lambda name=name: figure_preset(name, points=20), id=f"{name}-20")
              for name in sorted(FIGURE_PRESETS)),
        ],
    )
    def test_sweep_text_equals_row_route(self, tmp_path, spec, fmt):
        spec = spec()
        expected = row_route.sweep_text(spec, fmt)
        result = write_sweep(spec, str(tmp_path / "out"), fmt)
        assert (tmp_path / "out").read_bytes() == expected.encode()
        assert len(result) == spec.count * len(spec.series)

    @pytest.mark.parametrize(
        "flags, quantities",
        [
            (("--g", "1", "--alpha", "1", "--r", "0.6", "--phi", "0.3"), ALL_QUANTITIES),
            (("--g", "0.5", "--alpha", "0.7+0.3j", "--r", "0.2", "--t1", "0.8", "--t2", "0.6",
              "--phi", "1.2", "--eta", "0.3"), ALL_QUANTITIES),
            (("--alpha", "0", "--phi", "0.4", "--eta", "0"), ALL_QUANTITIES),
            (("--g", "0", "--alpha", "0", "--r", "0", "--phi", "0.4", "--eta", "0.5"),
             ALL_QUANTITIES),
            (("--r=-0.0", "--alpha=-0.0-0.5j", "--g", "0.3"), "N,delta_phi_min,N,qcrb_lossy"),
        ],
    )
    def test_point_json_equals_row_route(self, flags, quantities):
        code, stdout, _ = run_main("point", *flags, "--quantities", quantities)
        args = cli.build_parser().parse_args(["point", *flags])
        expected = row_route.point_json(cli._params(args), args.eta, tuple(quantities.split(",")))
        assert code in (0, 2)
        assert stdout == expected + "\n"


    @staticmethod
    def _spec(variable, start, stop, overrides, count=5, fixed=None, quantities=("N", "delta_phi_min")):
        fixed = InterferometerParams(**{"g": 1.0, "alpha": 1.0, "r": 0.0, **(fixed or {})})
        series = tuple(SweepSeries(f"s{i}", o) for i, o in enumerate(overrides))
        return SweepSpec(variable, start, stop, count, fixed, quantities, series)

    @pytest.mark.parametrize(
        "variable, start, stop, count, overrides, error, message",
        [
            pytest.param("g", -1.0, 1.0, 5, [{}], ValueError, "gain g must be >= 0", id="g-below-0"),
            pytest.param("t1", 0.5, 1.5, 5, [{}], ValueError,
                         "transmittance t1 must lie in [0, 1], got 1.25", id="t1-above-1"),
            pytest.param("t1", 0.5, 1.5, 20, [{}], ValueError,
                         "transmittance t1 must lie in [0, 1], got 1.026315789473684",
                         id="t1-above-1-at-20"),
            # only the last grid point fails
            pytest.param("t2", 0.0, math.nextafter(1.0, 2.0), 3, [{}], ValueError,
                         "transmittance t2 must lie in [0, 1], got 1.0000000000000002",
                         id="t2-one-ulp-above-1"),
            pytest.param("g", 0.0, 1.0, 5, [{"r": 0.5}, {"r": -0.3}], ValueError,
                         "squeezing r must be >= 0", id="negative-r-override"),
            pytest.param("eta", 0.0, 2.0, 5, [{}], ValueError,
                         "eta must be finite and lie in [0, 1], got 1.5", id="eta-above-1"),
            pytest.param("g", 0.0, 1.0, 5, [{"eta": -0.5}], ValueError,
                         "eta must be finite and lie in [0, 1], got -0.5", id="eta-override"),
            pytest.param("t_k", 0.2, 1.0, 5, [{"r": 0.3}], ValueError,
                         "t_k sweeps need a series sweep_target of t1 or t2", id="t_k-no-target"),
            pytest.param("g", 0.0, 1.0, 5, [{"gain": 1.0}], TypeError,
                         "series overrides name no parameter: ['gain']", id="unknown-override"),
            pytest.param("phi", 0.0, 1.0, 5, [{"t2": math.nan}], ValueError,
                         "t2 must be finite, got nan", id="nan-override"),
            pytest.param("r", 0.0, 1.0, 5, [{"g": 1j}], TypeError, None, id="complex-gain"),
            pytest.param("g", 0.0, 1.0, 5, [{"r": "1"}], TypeError, None, id="text-r"),
            # a list is one value, not a column of the grid, whatever its length
            pytest.param("g", 0.0, 1.0, 3, [{"r": [0.1, -5.0, 0.3]}], TypeError,
                         "must be real number, not list", id="list-override"),
            pytest.param("g", 0.0, 1.0, 5, [{"r": [0.1, 0.3]}], TypeError,
                         "must be real number, not list", id="short-list-override"),
        ],
    )
    def test_invalid_grid_raises_as_row_route(self, variable, start, stop, count, overrides, error,
                                              message):
        # the series is checked at its grid's ends; the error is the one
        # building each point's parameters in turn raised
        spec = self._spec(variable, start, stop, overrides, count=count)
        with pytest.raises(error) as want:
            row_route.run_sweep(spec)
        with pytest.raises(error) as got:
            run_sweep(spec)
        assert str(got.value) == str(want.value)
        if message is not None:
            assert str(got.value) == message

    @pytest.mark.parametrize(
        "variable, overrides",
        [("g", {"g": -1.0}), ("eta", {"eta": 2.0}), ("t_k", {"sweep_target": "t1", "t1": 2.0}),
         ("phi", {"phi": math.inf}), ("alpha", {"alpha": math.nan})],
    )
    def test_invalid_fixed_value_of_the_swept_field_runs(self, variable, overrides):
        spec = self._spec(variable, 0.0, 1.0, [overrides], quantities=ALL_QUANTITIES.split(","))
        assert render_csv(run_sweep(spec)) == row_route.sweep_text(spec, "csv")

    @pytest.mark.parametrize(
        "variable, start, stop, count, fixed, message",
        [
            ("g", 711.0, 720.0, 3, {}, "g=711 is too large: cosh/sinh overflow"),
            ("r", 0.0, 800.0, 3, {}, "generating exponent overflows at g=1, alpha=1+0j, r=400"),
            # cosh overflows from g = 715, the entries from g = 700
            ("g", 700.0, 720.0, 5, {}, "generating exponent overflows at g=700, alpha=1+0j, r=0"),
            ("alpha", 0.0, 2.0, 3, {"g": 711.0}, "g=711 is too large: cosh/sinh overflow"),
            ("alpha", 0.0, 1e308, 5, {"g": 3.0},
             "generating exponent overflows at g=3, alpha=2.5e+307+0j, r=0"),
            ("g", 0.0, 720.0, 9, {"alpha": 1e300},
             "generating exponent overflows at g=90, alpha=1e+300+0j, r=0"),
            ("t1", 0.0, 1.0, 3, {"g": 710.48}, "g=710.48 is too large: cosh/sinh overflow"),
        ],
    )
    def test_exponent_overflow_raises_as_row_route(self, variable, start, stop, count, fixed, message):
        # a series whose entries overflow anywhere is replayed point by point
        spec = self._spec(variable, start, stop, [{}], count=count, fixed=fixed)
        with pytest.raises(ValueError) as want:
            row_route.run_sweep(spec)
        with pytest.raises(ValueError) as got:
            run_sweep(spec)
        assert str(got.value) == str(want.value) == message


# each quantity of one point through the scalar API, as sweeps evaluated it
# point by point
SCALAR_QUANTITY = {
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


def scalar_row(p, eta, quantities):
    """(cells, flags) of one point through the scalar API."""
    cells, flags = {}, set()
    for q in quantities:
        try:
            v = SCALAR_QUANTITY[q](p, eta)
        except DivergentSensitivityError:
            v = None
            flags.add("divergent")
        except DegenerateConfigurationError:
            v = None
            flags.add("degenerate")
        if v is not None and math.isinf(v):
            if q == "delta_phi_min":
                v = None
                flags.add("divergent")
            elif q == "qcrb_lossy":
                flags.add("unbounded")
        cells[q] = v
    return cells, ";".join(sorted(flags))


def series_points(spec):
    """(point, eta) of every row of a sweep, series-major, built one by one."""
    f = spec.fixed
    for series in spec.series:
        overrides = dict(series.overrides)
        target = overrides.pop("sweep_target", spec.variable)
        for value in spec.grid().tolist():
            fields = dict(g=f.g, alpha=f.alpha, r=f.r, t1=f.t1, t2=f.t2, phi=f.phi, eta=spec.eta)
            fields.update(overrides)
            fields[target] = value
            eta = fields.pop("eta")
            yield InterferometerParams(**fields), eta


def bits(value):
    """A cell's exact bits, signed zeros included; None stays None."""
    return None if value is None else float(value).hex()


# the command-line domain of each sweep variable
SWEEP_RANGES = {
    "phi": (-10.0, 10.0), "g": (0.0, 2.0), "alpha": (-3.0, 3.0), "r": (0.0, 1.5),
    "t1": (0.0, 1.0), "t2": (0.0, 1.0), "t_k": (0.0, 1.0), "eta": (0.0, 1.0),
}

# the series of a sweep: one, a family of r curves (r = 0 and -0.0 among
# them), or of complex amplitudes (alpha = 0 among them); a t_k sweep places
# each of them inside (t1) and after (t2) the second squeezer
SERIES_FAMILIES = {
    "one": (SweepSeries(),),
    "r": (*r_series((0.0, 0.3, 1.2)), SweepSeries("r=-0", {"r": -0.0})),
    "alpha": tuple(SweepSeries(f"alpha={a}", {"alpha": a}) for a in (0.5 - 0.7j, -1.2 + 0.3j, 0.0)),
}


def sweep_series(variable, family):
    series = SERIES_FAMILIES[family]
    if variable != "t_k":
        return series
    return tuple(
        SweepSeries(f"{s.label} {place}", {**s.overrides, "sweep_target": target})
        for s in series
        for place, target in (("internal", "t1"), ("external", "t2"))
    )


class TestBatchEqualsScalar:
    """run_sweep evaluates each quantity of a whole sweep, all its series
    joined, in one call; every row must still be the scalar API's point, bit
    for bit."""

    @given(
        variable=st.sampled_from(SWEEP_VARIABLES),
        family=st.sampled_from(sorted(SERIES_FAMILIES)),
        ends=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        count=st.integers(2, 40),
        g=st.floats(0, 2),
        re_a=st.floats(-3, 3),
        im_a=st.floats(-3, 3),
        r=st.floats(0, 1.5),
        t1=st.floats(0, 1),
        t2=st.floats(0, 1),
        phi=st.floats(-10, 10),
        eta=st.floats(0, 1),
    )
    # the grid starts at a zero of the swept variable, and the fixed point
    # sits on a zero: alpha = 0 and -0.0, g = 0, r = 0, t1 = 0, eta 0 and 1,
    # and the vacuum g = alpha = r = 0
    @example(variable="phi", family="one", ends=(0.4, 0.6), count=5, g=0.0, re_a=0.0,
             im_a=0.0, r=0.0, t1=1.0, t2=1.0, phi=0.0, eta=0.5)
    @example(variable="g", family="one", ends=(0.0, 0.5), count=7, g=0.0, re_a=-0.0, im_a=0.0,
             r=0.3, t1=0.8, t2=0.9, phi=0.7, eta=0.0)
    @example(variable="alpha", family="one", ends=(0.25, 0.75), count=9, g=0.0, re_a=0.0,
             im_a=-0.0, r=0.0, t1=1.0, t2=1.0, phi=1.1, eta=1.0)
    @example(variable="r", family="one", ends=(0.0, 1.0), count=6, g=0.6, re_a=0.5, im_a=-0.5,
             r=0.0, t1=0.0, t2=0.7, phi=0.9, eta=0.3)
    @example(variable="eta", family="one", ends=(0.0, 1.0), count=3, g=0.0, re_a=0.0, im_a=0.0,
             r=0.0, t1=1.0, t2=1.0, phi=0.4, eta=1.0)
    @example(variable="t_k", family="one", ends=(0.0, 1.0), count=4, g=1.0, re_a=-0.0,
             im_a=-0.0, r=0.6, t1=1.0, t2=1.0, phi=0.3, eta=0.0)
    # joined series: flagged and unflagged ones, a fixed point and a swept
    # (g, alpha, r) side by side
    @example(variable="phi", family="r", ends=(0.0, 0.5), count=5, g=1.0, re_a=1.0, im_a=0.0,
             r=0.0, t1=1.0, t2=1.0, phi=0.0, eta=0.5)
    @example(variable="g", family="alpha", ends=(0.0, 0.5), count=6, g=0.0, re_a=0.0, im_a=0.0,
             r=0.3, t1=0.8, t2=0.9, phi=0.0, eta=0.0)
    @example(variable="t_k", family="r", ends=(0.0, 1.0), count=4, g=1.0, re_a=0.7, im_a=0.3,
             r=0.6, t1=1.0, t2=1.0, phi=0.3, eta=0.4)
    @example(variable="eta", family="alpha", ends=(0.0, 1.0), count=3, g=0.0, re_a=0.0,
             im_a=0.0, r=0.0, t1=1.0, t2=1.0, phi=0.4, eta=1.0)
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_scalar_api(
        self, variable, family, ends, count, g, re_a, im_a, r, t1, t2, phi, eta
    ):
        lo, hi = SWEEP_RANGES[variable]
        start, stop = (lo + (hi - lo) * u for u in sorted(ends))
        assume(start < stop)
        spec = SweepSpec(
            variable, start, stop, count,
            InterferometerParams(g=g, alpha=complex(re_a, im_a), r=r, t1=t1, t2=t2, phi=phi),
            QUANTITIES, sweep_series(variable, family), eta,
        )
        result = run_sweep(spec)
        points = list(series_points(spec))
        assert len(result) == len(points)
        columns = list(zip(*(column(result, c) for c in (*QUANTITIES, "flags"))))
        for (*row, row_flags), (p, point_eta) in zip(columns, points):
            cells, flags = scalar_row(p, point_eta, QUANTITIES)
            assert row_flags == flags, p
            assert [bits(v) for v in row] == [bits(cells[q]) for q in QUANTITIES], p

    @pytest.mark.parametrize(
        "second",
        [
            # fails only in its optimum, which a joined batch solves first
            pytest.param({"r": 300.0}, id="optimum"),
            # fails in its parameters, read before any series is evaluated
            pytest.param({"r": -1.0}, id="parameters"),
        ],
    )
    def test_first_failing_series_names_the_error(self, second):
        # the first series' optimum is finite; only its N overflows
        fixed = InterferometerParams(g=1.0, alpha=1.0, r=0.0)
        series = (SweepSeries("a", {"alpha": 1e200}), SweepSeries("b", second))
        spec = SweepSpec("phi", 0.0, 1.0, 3, fixed, ("N", "delta_phi_min"), series)
        with pytest.raises(ValueError) as alone:
            run_sweep(SweepSpec("phi", 0.0, 1.0, 3, fixed, ("N", "delta_phi_min"), series[1:]))
        with pytest.raises(ValueError) as want:
            row_route.run_sweep(spec)
        with pytest.raises(ValueError) as got:
            run_sweep(spec)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "photon number N overflows at g=1, alpha=1e+200+0j, r=0"
        assert str(alone.value) != str(got.value)

    @pytest.mark.parametrize(
        "variable, start, stop, count, fixed, quantities",
        [
            # N overflows from the second point on, the harmonics from the
            # seventh: quantity by quantity, delta_phi's would come first
            ("alpha", 1e150, 1e308, 9, {}, ("delta_phi", "N")),
            # the harmonics overflow at g = 212.5, the exponent at g = 362.5
            ("g", 100.0, 400.0, 9, {"phi": 0.5}, ("N", "delta_phi")),
            # the homodyne variance overflows at r = 354 (the harmonics do
            # not), N at 354.5
            ("r", 350.0, 356.0, 13, {"phi": 0.5}, ("sql", "delta_phi")),
            # delta_phi_min is solved for the whole series before the rest
            ("alpha", 1e150, 1e308, 9, {}, ("N", "delta_phi_min")),
            # the series' optimum names the exponent at g = 362.5; point by
            # point, the harmonics at g = 212.5 overflow first
            ("g", 100.0, 400.0, 9, {"phi": 0.5}, ("delta_phi_min",)),
        ],
    )
    def test_overflow_names_the_point_by_point_first(
        self, variable, start, stop, count, fixed, quantities
    ):
        fixed = InterferometerParams(**{"g": 1.0, "alpha": 1.0, "r": 0.0, **fixed})
        spec = SweepSpec(variable, start, stop, count, fixed, quantities, eta=0.5)
        points = list(series_points(spec))
        expected = None
        if "delta_phi_min" in quantities:  # solved for every point first
            for p, _ in points:
                try:
                    optimal_phase(p)
                except DivergentSensitivityError:
                    continue
                except ValueError as exc:
                    expected = str(exc)
                    break
        for p, eta in points:
            for q in quantities:
                if expected is not None:
                    break
                try:
                    v = SCALAR_QUANTITY[q](p, eta)
                except (DivergentSensitivityError, DegenerateConfigurationError):
                    continue
                except ValueError as exc:
                    expected = str(exc)
                    break
                if not math.isfinite(v) and not (
                    math.isinf(v) and q in ("delta_phi_min", "qcrb_lossy")
                ):
                    expected = f"{q} = {v} is not finite at g={p.g:g}, " \
                        f"alpha={complex(p.alpha):g}, r={p.r:g}, t1={p.t1:g}, t2={p.t2:g}, " \
                        f"phi={p.phi:g}, eta={eta:g}"
        assert expected is not None
        with pytest.raises(ValueError) as sweep:
            run_sweep(spec)
        assert str(sweep.value) == expected

    def test_non_finite_ok_cell_names_its_point(self, monkeypatch):
        # N reads inf with status ok at one point of the second series: the
        # joined call, each series and each point replay it, and the error
        # names that point
        entry = sweeps._QUANTITY_TABLE["N"]
        calls = []

        def patched(state, etas):
            calls.append(len(state))
            values, status = entry(state, etas)
            values = np.array(values, dtype=float)
            hit = [(p.r, p.phi) == (0.5, 0.5) for p in map(state.point, range(len(state)))]
            values[np.array(hit)] = np.inf
            return values, status

        monkeypatch.setitem(sweeps._QUANTITY_TABLE, "N", patched)
        fixed = InterferometerParams(g=1.0, alpha=1.0, r=0.0)
        series = (SweepSeries("a", {"r": 0.0}), SweepSeries("b", {"r": 0.5}))
        with pytest.raises(ValueError) as exc:
            run_sweep(SweepSpec("phi", 0.0, 1.0, 3, fixed, ("N",), series))
        assert str(exc.value) == (
            "N = inf is not finite at g=1, alpha=1+0j, r=0.5, t1=1, t2=1, phi=0.5, eta=1"
        )
        # joined, then its points up to the failing fifth; then series a
        # whole, and series b with its points up to the failing second
        assert calls == [6, 1, 1, 1, 1, 1, 3, 3, 1, 1]
