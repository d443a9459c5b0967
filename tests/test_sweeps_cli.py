"""Sweep engine, figure presets, output formats, and the CLI surface."""

import contextlib
import inspect
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from su11lso.cli import main
from su11lso import crosscheck
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
    SweepSeries,
    SweepSpec,
    figure_preset,
    render_csv,
    run_sweep,
    sweep_columns,
    write_sweep,
)


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


class TestSweepSpec:
    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="variable"):
            spec_(variable="banana")

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError, match="quantities"):
            spec_(quantities=("delta_phi", "entropy"))

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            spec_(start=1.0, stop=0.5)
        with pytest.raises(ValueError):
            spec_(count=1)


class TestRunSweep:
    def test_row_count_and_order(self):
        series = tuple(SweepSeries(f"r={r:g}", {"r": r}) for r in (0.0, 0.5))
        rows = run_sweep(spec_(count=4, series=series))
        assert len(rows) == 8
        assert [r["series"] for r in rows] == ["r=0"] * 4 + ["r=0.5"] * 4
        assert rows[0]["phi"] == pytest.approx(0.1)
        assert rows[3]["phi"] == pytest.approx(1.0)

    def test_divergent_points_flagged_not_dropped(self):
        rows = run_sweep(spec_(variable="phi", start=0.0, stop=1.0, count=3))
        assert len(rows) == 3
        assert rows[0]["flags"] == "divergent"
        assert rows[0]["delta_phi"] is None
        assert rows[1]["flags"] == ""
        assert rows[1]["delta_phi"] > 0

    def test_series_optimum_matches_point_optimum(self):
        # one optimal_phase call solves the series; alpha = 0 reads inf there
        rows = run_sweep(
            spec_(variable="alpha", start=0.0, stop=1.0, count=5, quantities=("delta_phi_min",))
        )
        assert rows[0]["flags"] == "divergent" and rows[0]["delta_phi_min"] is None
        for row in rows[1:]:
            p = InterferometerParams(g=1, alpha=row["alpha"], r=0.3)
            assert row["flags"] == ""
            assert row["delta_phi_min"] == optimal_phase(p).delta_phi_min

    def test_eta_sweep_hits_exact_limits(self):
        rows = run_sweep(
            spec_(variable="eta", start=0.0, stop=1.0, count=3, quantities=("qfi_lossy",))
        )
        p = InterferometerParams(g=1, alpha=1, r=0.3)
        assert rows[0]["qfi_lossy"] == 0.0
        assert rows[2]["qfi_lossy"] == qfi_ideal(p).fisher

    def test_t_k_sweep_routes_to_designated_loss(self):
        series = (
            SweepSeries("internal", {"sweep_target": "t1"}),
            SweepSeries("external", {"sweep_target": "t2"}),
        )
        rows = run_sweep(
            spec_(variable="t_k", start=0.5, stop=1.0, count=2, series=series,
                  quantities=("N",))
        )
        assert rows[0]["t1"] == 0.5 and rows[0]["t2"] == 1.0
        assert rows[2]["t2"] == 0.5 and rows[2]["t1"] == 1.0


class TestCsv:
    def test_fifteen_significant_digits(self):
        rows = [{"series": "", "g": 1.0, "alpha": 1.0, "r": 0.0, "t1": 1.0,
                 "t2": 1.0, "phi": 1 / 3, "eta": 1.0, "N": math.pi * 100, "flags": ""}]
        text = render_csv(rows, ["phi", "N", "flags"])
        assert "0.333333333333333" in text
        assert "314.159265358979" in text

    def test_infinity_and_empty_cells(self):
        rows = [{"phi": 0.0, "qcrb_lossy": math.inf, "delta_phi": None, "flags": "unbounded"}]
        text = render_csv(rows, ["phi", "qcrb_lossy", "delta_phi", "flags"])
        assert text.splitlines()[1] == "0,inf,,unbounded"

    def test_cell_types_format_as_before(self):
        # exact floats take the fast path; numpy floats, complexes and ints
        # keep the general formatter's output
        rows = [{"a": 1 / 3, "b": np.float64(1 / 3), "c": complex(0.5, -0.25), "d": 7}]
        text = render_csv(rows, ["a", "b", "c", "d"])
        assert text.splitlines()[1] == "0.333333333333333,0.333333333333333,0.5-0.25j,7"

    def test_quotes_cells_with_commas(self):
        rows = [{"series": "a,b", "flags": ""}]
        assert render_csv(rows, ["series", "flags"]).splitlines()[1] == '"a,b",'


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
        assert len(run_sweep(spec)) == 4 * 200

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
        rows = run_sweep(figure_preset("fig10", points=21))
        for r in R_SERIES:
            series = [row for row in rows if row["series"] == f"r={r:g}"]
            fl = [row["qfi_lossy"] for row in series]
            assert all(b >= a - 1e-12 for a, b in zip(fl, fl[1:]))
            qc = [row["qcrb_lossy"] for row in series]
            assert all(b <= a + 1e-12 for a, b in zip(qc, qc[1:]))

    def test_fig7_monotone_in_gain_and_amplitude(self):
        for name in ("fig7a", "fig7b"):
            rows = run_sweep(figure_preset(name, points=25))
            for r in R_SERIES:
                series = [row for row in rows if row["series"] == f"r={r:g}"]
                vals = [row["qfi"] for row in series if row["qfi"] is not None]
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


def _stub_oracle(fisher, runs):
    """A stand-in Fock oracle: the analytic N, the given F (the analytic one
    where None) and no phase slope anywhere; it records each (alpha, t1)
    group it is asked for in runs."""

    class StubOracle:
        def __init__(self, alpha, g, r, **_):
            self.base = InterferometerParams(g=g, alpha=alpha, r=r)

        def photon_number(self):
            return total_photon_number(self.base)

        def fisher_pure(self):
            return qfi_ideal(self.base).fisher if fisher is None else fisher

        def quadrature_statistics(self, t1, t2_values, phis):
            runs.append((self.base.alpha.real, t1))
            return {(t2, phi): (0.0, 1.0, 0.0) for t2 in t2_values for phi in phis}

    return StubOracle


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
        # divergent throughout; only the oracle can confirm it
        runs = []
        monkeypatch.setattr(crosscheck, "SensitivityOracle", _stub_oracle(None, runs))
        crosscheck.run_cross_check(
            alphas=(0.5,), gs=(0.5,), rs=(0.5,), t_pairs=t_pairs, phis=(0.8,)
        )
        assert sorted(runs) == [(0.5, 0.0), (0.5, 1.0)]
        # the Fock oracle finds no slope there either
        monkeypatch.undo()
        result = crosscheck.run_cross_check(
            alphas=(0.5,), gs=(0.5,), rs=(0.5,), t_pairs=t_pairs, phis=(0.8,)
        )
        assert [c.flag for c in result.cells if c.t1 == 0.0] == ["divergent"]
        assert result.passed

    def test_confirmed_divergence_is_reused(self, monkeypatch):
        # alpha = 0: the first group's divergence is confirmed by the
        # oracle, so the engine's later divergent groups skip it
        runs = []
        monkeypatch.setattr(crosscheck, "SensitivityOracle", _stub_oracle(None, runs))
        result = crosscheck.run_cross_check(
            alphas=(0.0,), gs=(0.5,), rs=(0.5,), t_pairs=((1.0, 1.0), (0.7, 1.0)), phis=(0.8,)
        )
        assert runs == [(0.0, 1.0)]
        assert [c.flag for c in result.cells if c.quantity == "delta_phi"] == ["divergent"] * 2
        assert result.passed

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
        # the lossless group outgrows its start grid, and the lossy group
        # starts from the grid it left
        from su11lso import fock

        probes = []
        evaluate = fock.SensitivityOracle._evaluate_at_dims

        def recording(engine, t1, t2_values, phi_values, d_a, d_b):
            probes.append((t1, d_a, d_b))
            return evaluate(engine, t1, t2_values, phi_values, d_a, d_b)

        monkeypatch.setattr(fock.SensitivityOracle, "_evaluate_at_dims", recording)
        code, stdout, _ = run_main(
            "check", "--alphas", "0.5", "--gs", "1.2", "--rs", "0.3", "--ts", "1,0.7",
            "--phis", "0.8,1.5",
        )
        assert code == 0
        assert stdout.splitlines()[-1].startswith("overall: PASS (")
        (t1_a, *start), (t1_b, *grown), (t1_c, *carried) = probes
        assert (t1_a, t1_b, t1_c) == (1.0, 1.0, 0.7)
        assert grown != start and all(g >= s for g, s in zip(grown, start))
        assert carried == grown

    @pytest.mark.parametrize("alphas", [(0.5j,), (0.5, 1 + 1e-9j)], ids=["imaginary", "second"])
    def test_non_real_alpha_rejected_before_any_engine(self, monkeypatch, alphas):
        # cells carry alpha as a real number: 0.5j would read as alpha = 0
        engines = []
        monkeypatch.setattr(
            crosscheck, "SensitivityOracle", lambda *a, **kw: engines.append(a)
        )
        with pytest.raises(ValueError, match=r"alpha must be real, got .*j"):
            crosscheck.run_cross_check(
                alphas=alphas, gs=(0.5,), rs=(0.5,), t_pairs=((1.0, 1.0),), phis=(0.8,)
            )
        assert engines == []


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

T_K_SERIES = (
    SweepSeries("internal", {"sweep_target": "t1"}),
    SweepSeries("external", {"sweep_target": "t2"}),
)


class TestBatchEqualsScalar:
    """run_sweep evaluates each quantity of a series in one call; every row
    must still be the scalar API's point, bit for bit."""

    @given(
        variable=st.sampled_from(SWEEP_VARIABLES),
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
    @example(variable="phi", ends=(0.4, 0.6), count=5, g=0.0, re_a=0.0, im_a=0.0, r=0.0,
             t1=1.0, t2=1.0, phi=0.0, eta=0.5)
    @example(variable="g", ends=(0.0, 0.5), count=7, g=0.0, re_a=-0.0, im_a=0.0, r=0.3,
             t1=0.8, t2=0.9, phi=0.7, eta=0.0)
    @example(variable="alpha", ends=(0.25, 0.75), count=9, g=0.0, re_a=0.0, im_a=-0.0, r=0.0,
             t1=1.0, t2=1.0, phi=1.1, eta=1.0)
    @example(variable="r", ends=(0.0, 1.0), count=6, g=0.6, re_a=0.5, im_a=-0.5, r=0.0,
             t1=0.0, t2=0.7, phi=0.9, eta=0.3)
    @example(variable="eta", ends=(0.0, 1.0), count=3, g=0.0, re_a=0.0, im_a=0.0, r=0.0,
             t1=1.0, t2=1.0, phi=0.4, eta=1.0)
    @example(variable="t_k", ends=(0.0, 1.0), count=4, g=1.0, re_a=-0.0, im_a=-0.0, r=0.6,
             t1=1.0, t2=1.0, phi=0.3, eta=0.0)
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_scalar_api(
        self, variable, ends, count, g, re_a, im_a, r, t1, t2, phi, eta
    ):
        lo, hi = SWEEP_RANGES[variable]
        start, stop = (lo + (hi - lo) * u for u in sorted(ends))
        assume(start < stop)
        spec = SweepSpec(
            variable, start, stop, count,
            InterferometerParams(g=g, alpha=complex(re_a, im_a), r=r, t1=t1, t2=t2, phi=phi),
            QUANTITIES, T_K_SERIES if variable == "t_k" else (SweepSeries(),), eta,
        )
        rows = run_sweep(spec)
        points = list(series_points(spec))
        assert len(rows) == len(points)
        for row, (p, point_eta) in zip(rows, points):
            cells, flags = scalar_row(p, point_eta, QUANTITIES)
            assert row["flags"] == flags, p
            assert {q: bits(row[q]) for q in QUANTITIES} == {
                q: bits(v) for q, v in cells.items()
            }, p

    @pytest.mark.parametrize(
        "variable, start, stop, count, fixed, quantities",
        [
            # N overflows from the second point on, the harmonics from the
            # seventh: quantity by quantity, delta_phi's would come first
            ("alpha", 1e150, 1e308, 9, {}, ("delta_phi", "N")),
            # the harmonics overflow at g = 212.5, the exponent at g = 362.5
            ("g", 100.0, 400.0, 9, {"phi": 0.5}, ("N", "delta_phi")),
            # delta_phi is inf at r = 354 (no function raises), N overflows at 354.5
            ("r", 350.0, 356.0, 13, {"phi": 0.5}, ("sql", "delta_phi")),
            # delta_phi_min is solved for the whole series before the rest
            ("alpha", 1e150, 1e308, 9, {}, ("N", "delta_phi_min")),
        ],
    )
    def test_overflow_names_the_point_by_point_first(
        self, variable, start, stop, count, fixed, quantities
    ):
        fixed = InterferometerParams(**{"g": 1.0, "alpha": 1.0, "r": 0.0, **fixed})
        spec = SweepSpec(variable, start, stop, count, fixed, quantities, eta=0.5)
        points = list(series_points(spec))
        expected = None
        if "delta_phi_min" in quantities:  # solved for the whole series first
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    optimal_phase([p for p, _ in points])
            except ValueError as exc:
                expected = str(exc)
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
