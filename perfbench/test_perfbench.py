"""Self-tests of the benchmark, on small inputs (a few seconds).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workload  # noqa: E402

su11lso = workload.import_package()

import gaussian  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "figures": dict(presets=("fig2", "fig3", "fig10", "fig11a"), points=4),
    "points": dict(count=50),
    "validate": dict(
        grids=(dict(alphas=(0.0, 0.5), gs=(0.5,), rs=(0.5,),
                    t_pairs=((1.0, 1.0), (0.7, 1.0))),),
        etas=(0.9,),
    ),
}


def small_child(name, seed, mode):
    return workload.run(name, seed, mode, **SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_hook_fires_and_outputs_check(name):
    out = small_child(name, 1, "trace")  # raises if an expected hook stays silent
    assert out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_ratio"}
    assert expected <= set(out["layers"])


def test_missing_hook_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        tracer, "HOOKS", tracer.HOOKS + (("x.y", "su11lso.moments", "renamed_away", ("points",)),)
    )
    with pytest.raises(RuntimeError, match="renamed_away"):
        tracer.Tracer().install()


def test_silent_hook_is_reported():
    t = tracer.Tracer()
    t.install()
    try:
        su11lso.total_photon_number(su11lso.InterferometerParams(g=0.4, alpha=0.3, r=0.2))
    finally:
        t.uninstall()
    silent = t.silent_hooks("points")
    assert "metrology.phase_sensitivity" in silent
    assert "metrology.total_photon_number" not in silent
    assert su11lso.total_photon_number.__name__ == "total_photon_number"
    assert not hasattr(su11lso.total_photon_number, "__wrapped__")


def test_perturbed_reference_counts_as_failure(monkeypatch):
    state = workload.points_setup(5, su11lso, count=20)
    state["sampler"] = speed.Sampler()
    workload.points_work(state, su11lso)
    clean = workload.Checker(workload.REL_TOL)
    workload.points_verify(state, clean)
    assert (clean.attempted, clean.failed) == (20, 0)

    original = workload.point_references

    def perturbed(*args, **kwargs):
        refs = original(*args, **kwargs)
        refs["N"] = refs["N"].copy()
        refs["N"][7] *= 1.0 + 1e-7
        return refs

    monkeypatch.setattr(workload, "point_references", perturbed)
    checker = workload.Checker(workload.REL_TOL)
    workload.points_verify(state, checker)
    assert (checker.attempted, checker.failed) == (20, 1)
    assert "point 7" in checker.messages[0]


def test_cache_surviving_between_repeats_stops_the_run(monkeypatch):
    state = workload.points_setup(6, su11lso, count=20)
    state["sampler"] = speed.Sampler()
    state["caches"] = []  # the moment cache now answers every repeat
    with pytest.raises(RuntimeError, match="cache"):
        workload.points_work(state, su11lso)


def test_speed_scaling_integrates_the_sampled_speed():
    sampler = speed.Sampler()
    sampler.times = [10.0, 10.1, 10.2, 11.2]
    sampler.factors = [1.0, 3.0, 2.0, 8.0]
    # means 2, 2.5 and 5 between the samples, 8 after the last; 0.5 s of
    # [10, 11.7] went to sampling
    scaled = sampler.scale([10.0, 9.0, 10.05], [11.7, 10.0, 10.05], [0.5, 0.0, 0.0])
    assert scaled[0] == pytest.approx((0.1 * 2 + 0.1 * 2.5 + 1.0 * 5 + 0.5 * 8) * 1.2 / 1.7)
    assert scaled[1] == pytest.approx(1.0)
    assert scaled[2] == 0.0


def test_oracle_cell_above_tolerance_counts_as_failure():
    cell = su11lso.crosscheck.CellResult("N", 0.5, 1.0, 1.0, None, None, None, 1.0, 1.0 + 2e-6, 2e-6)
    result = su11lso.crosscheck.CrossCheckResult(tolerance=1e-6, cells=[cell])
    checker = workload.Checker(workload.ORACLE_TOL)
    workload.validate_verify({"results": [result], "mixed": [(0.5, 1.0, 1.0)]}, checker)
    assert (checker.attempted, checker.failed) == (2, 1)


FIXED_POINTS = (
    (1.0, 1.0, 0.6, 1.0, 1.0, 0.3),
    (0.5, 0.7 + 0.3j, 0.2, 0.8, 0.6, 1.2),
    (1.4, -1.5 + 0.4j, 1.1, 0.3, 0.9, 2.5),
    (0.0, 1.0, 0.0, 1.0, 1.0, 0.7),
    (0.3, 0.2, 0.9, 0.5, 0.5, 0.1),
)


@pytest.mark.parametrize("point", FIXED_POINTS)
def test_gaussian_reference_agrees_with_package(point):
    g, alpha, r, t1, t2, phi = point
    p = su11lso.InterferometerParams(g=g, alpha=alpha, r=r, t1=t1, t2=t2, phi=phi)
    stats = su11lso.quadrature_stats(p)
    mean, var, slope = gaussian.quadrature(g, alpha, r, t1, t2, phi)
    n_total, _, var_a = gaussian.photon_numbers(g, alpha, r)
    assert mean[0] == pytest.approx(stats.mean, rel=1e-12)
    assert var[0] == pytest.approx(stats.variance, rel=1e-12)
    assert slope[0] == pytest.approx(stats.dmean_dphi, rel=1e-12)
    assert n_total[0] == pytest.approx(su11lso.total_photon_number(p), rel=1e-12)
    assert 4.0 * var_a[0] == pytest.approx(su11lso.qfi_ideal(p).fisher, rel=1e-12)
    best = su11lso.optimal_phase(p).delta_phi_min
    grid_min, refined = gaussian.min_sensitivity(g, alpha, r, t1, t2)
    assert refined[0] * (1 - 1e-9) <= best <= grid_min[0] * (1 + 1e-9)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workload.tail_percentile(list(range(10_000)))[1:] == (95.0, 500)
    assert workload.tail_percentile(list(range(210)))[1:] == (95.0, 10)
    assert workload.tail_percentile(list(range(13))) == (12, 100.0, 0)


def _result_line(monkeypatch, trace):
    # in-process children share the moment cache, so the traced one draws
    # other points than the untraced one; the real children are processes
    monkeypatch.setattr(
        run, "child",
        lambda name, seed, mode, deadline: small_child(name, seed + 1000 * (mode == "trace"), mode),
    )
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "points", "--seed", "2", "--seconds", "30",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_with_its_unit(monkeypatch, trace, section):
    result = _result_line(monkeypatch, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
