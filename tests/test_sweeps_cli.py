"""Sweep engine, figure presets, output formats, and the CLI surface."""

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su11lso.cli import main
from su11lso.crosscheck import CellResult, CrossCheckResult
from su11lso.metrology import qfi_ideal, qfi_lossy
from su11lso.moments import InterferometerParams
from su11lso.sweeps import (
    FIGURE_PRESETS,
    QUANTITIES,
    R_SERIES,
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
        ],
        ids=["one-point-grid", "one-r-curve", "integer-values", "fractional-points", "word-g"],
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
