"""The paired-benchmark summary of scripts/bench_pairs.py."""

import importlib.util
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "pass_ratio", "better": "higher", "bound": 1e-5},
]


def runs(walls, passes):
    return [None if w is None else {"wall_s": w, "pass_ratio": p} for w, p in zip(walls, passes)]


def test_wins_ties_quartiles_and_ratio():
    parent = runs([10.0, 12.0, 11.0, 13.0, 9.0], [1.0, 1.0, 0.5, 1.0, 1.0])
    change = runs([5.0, 12.0, 6.0, 14.0, 4.0], [1.0, 0.5, 1.0, 1.0, 1.0])
    out = bench_pairs.summarize(parent, change, SPEC)
    wall = out["wall_s"]
    assert (wall["change_wins"], wall["ties"], wall["pairs"]) == (3, 1, 5)
    assert wall["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0, "min": 9.0, "max": 13.0}
    assert wall["change"]["median"] == 6.0
    assert wall["median_ratio_change_over_parent"] == pytest.approx(6.0 / 11.0)
    assert (wall["better"], wall["bound"]) == ("lower", 0.25)
    # higher is better: the change wins where it reads more, not less
    ratio = out["pass_ratio"]
    assert (ratio["change_wins"], ratio["ties"]) == (1, 3)


def test_failed_run_drops_its_pair():
    parent = runs([10.0, None, 11.0, 12.0], [1.0] * 4)
    change = runs([9.0, 1.0, None, 8.0], [1.0] * 4)
    out = bench_pairs.summarize(parent, change, SPEC)
    assert out["wall_s"]["pairs"] == 2
    assert out["wall_s"]["change_wins"] == 2
    assert bench_pairs.summarize(runs([None], [1.0]), runs([9.0], [1.0]), SPEC) == {}
    # one surviving pair has no quartiles: an empty summary, not an error
    one = bench_pairs.summarize(runs([10.0, None], [1.0] * 2), runs([9.0, 8.0], [1.0] * 2), SPEC)
    assert one == {}


def test_guard_summary_by_seed_with_failed_runs():
    out = bench_pairs.guard_summary({6: [0.31, 0.33, None], 7: [0.30, 0.34, 0.32], 8: [None] * 3})
    assert out["by_seed"] == {"6": [0.31, 0.33, None], "7": [0.30, 0.34, 0.32], "8": [None] * 3}
    assert out["failed_runs"] == 4
    assert (out["min"], out["median"], out["max"]) == (0.30, 0.32, 0.34)
    # every run failed: no range to report
    assert bench_pairs.guard_summary({6: [None]}) == {"by_seed": {"6": [None]}, "failed_runs": 1}


def test_csv_identity_per_preset(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
        (side / "fig2.csv").write_bytes(b"a,b\n1,2\n")
    (parent / "fig3.csv").write_bytes(b"x\n-0\n")
    (change / "fig3.csv").write_bytes(b"x\n0\n")
    (change / "fig4.csv").write_bytes(b"x\n")  # the parent wrote none
    out = bench_pairs.csv_identity(parent, change)
    assert out == {
        "identical": {"fig2": True, "fig3": False, "fig4": False},
        "all_identical": False,
    }
    (change / "fig3.csv").write_bytes(b"x\n-0\n")
    (change / "fig4.csv").unlink()
    assert bench_pairs.csv_identity(parent, change)["all_identical"] is True
    # no CSV at all is no evidence of identity
    empty = tmp_path / "empty"
    empty.mkdir()
    assert bench_pairs.csv_identity(empty, empty) == {"identical": {}, "all_identical": False}


def test_figure_csvs_of_this_checkout(tmp_path):
    # the script writes one default-size CSV per preset
    bench_pairs.write_figure_csvs(bench_pairs.ROOT, tmp_path / "csv")
    names = sorted(p.stem for p in (tmp_path / "csv").glob("*.csv"))
    assert len(names) == 13
    assert bench_pairs.csv_identity(tmp_path / "csv", tmp_path / "csv")["all_identical"]


def test_figure_csv_report_without_simd(tmp_path):
    # both sides' CSVs by default and without SIMD; the change side differs
    # in one preset, and only without SIMD
    bench_pairs.write_figure_csvs(bench_pairs.ROOT, tmp_path / "parent")
    bench_pairs.write_figure_csvs(bench_pairs.ROOT, tmp_path / "parent-no-simd", bench_pairs.NO_SIMD)
    shutil.copytree(tmp_path / "parent", tmp_path / "change")
    shutil.copytree(tmp_path / "parent-no-simd", tmp_path / "change-no-simd")
    (tmp_path / "change-no-simd" / "fig3.csv").write_bytes(b"x\n")
    out = bench_pairs.figure_csv_report(tmp_path)
    assert out["all_identical"] is True
    assert out["no_simd"]["all_identical"] is False
    assert [name for name, same in out["no_simd"]["identical"].items() if not same] == ["fig3"]
    assert len(out["no_simd"]["identical"]) == 13
    # each side against itself: this checkout's CSVs do not depend on SIMD
    assert out["no_simd"]["parent"]["all_identical"] is True
    assert out["no_simd"]["change"]["all_identical"] is False
    assert [name for name, same in out["no_simd"]["change"]["identical"].items() if not same] == ["fig3"]
