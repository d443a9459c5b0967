#!/usr/bin/env python3
"""Run the analytic-versus-oracle validation grid with live progress.

Usage:
    python scripts/oracle_crosscheck.py [--tolerance 1e-6] [--quick]

--quick restricts the grid to a single mid-strength parameter point per
axis, which finishes in seconds and is useful as a smoke test.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from su11lso.crosscheck import run_cross_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=1e-6)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    kwargs = dict(rel_tol=args.tolerance)
    if args.quick:
        kwargs.update(
            alphas=(0.8,), gs=(0.7,), rs=(0.5,), t_pairs=((1.0, 1.0), (0.7, 0.7)),
            phis=(0.8,),
        )

    def progress(cells):
        c = cells[0]
        print(
            f"  checked alpha={c.alpha:g} g={c.g:g} r={c.r:g} t1={c.t1:g}",
            flush=True,
        )

    try:
        result = run_cross_check(progress=progress, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))
    print()
    print("\n".join(result.summary_lines()))
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
