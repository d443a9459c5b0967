#!/usr/bin/env python3
"""Generate every figure dataset as CSV into an output directory.

Usage:
    python scripts/reproduce_figures.py [--outdir figures] [--points 200]

Each preset writes <outdir>/<preset>.csv with one row per (series, grid
point); plotting is left to downstream tooling.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from su11lso.sweeps import FIGURE_PRESETS, figure_preset, write_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures")
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--only", nargs="*", help="subset of presets to run")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.only or sorted(FIGURE_PRESETS)
    for name in names:
        spec = figure_preset(name, points=args.points)
        path = outdir / f"{name}.csv"
        t0 = time.time()
        rows = write_sweep(spec, str(path), "csv")
        print(f"{name}: {len(rows)} rows -> {path} ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
