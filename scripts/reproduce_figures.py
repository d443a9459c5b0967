#!/usr/bin/env python3
"""Generate every figure dataset as CSV into an output directory.

Usage:
    python scripts/reproduce_figures.py [--outdir figures] [--points 200]

Each preset writes <outdir>/<preset>.csv with one row per (series, grid
point); plotting is left to downstream tooling.  An unknown preset is a
usage error (exit 2); any other invalid input, such as --points 1, prints
one "invalid input:" line and exits 1.
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
    parser.add_argument(
        "--only", nargs="*", choices=sorted(FIGURE_PRESETS), help="subset of presets to run"
    )
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.only or sorted(FIGURE_PRESETS)
    for name in names:
        path = outdir / f"{name}.csv"
        t0 = time.time()
        try:
            result = write_sweep(figure_preset(name, points=args.points), str(path), "csv")
        except ValueError as exc:
            print(f"invalid input: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: {len(result)} rows -> {path} ({time.time() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
