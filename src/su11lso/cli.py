"""Command-line front end.

Subcommands:
  point    evaluate requested quantities at one parameter point (JSON out)
  sweep    run a custom one-variable sweep to CSV / JSON-lines
  figure   run a named figure preset to CSV / JSON-lines
  check    analytic-versus-oracle cross validation over a parameter grid

Exit codes: 0 ok, 1 usage or I/O error, 2 divergent or degenerate physics,
3 oracle non-convergence.  A flat key=value config file may supply flag
defaults of any subcommand; explicit flags win, and an unknown key is a
usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .crosscheck import run_cross_check
from .errors import (
    DegenerateConfigurationError,
    DivergentSensitivityError,
    NonconvergedOracleError,
)
from .fock import DEFAULT_MAX_DIM
from .moments import InterferometerParams
from .sweeps import (
    DEFAULT_POINTS,
    QUANTITIES,
    SWEEP_VARIABLES,
    FIGURE_PRESETS,
    SweepSeries,
    SweepSpec,
    _evaluate_quantities,
    figure_preset,
    write_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NONCONVERGED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--g", type=float, default=1.0, help="squeezer gain (both stages)")
    p.add_argument("--alpha", type=complex, default=1.0 + 0j, help="coherent amplitude")
    p.add_argument("--r", type=float, default=0.0, help="internal single-mode squeezing")
    p.add_argument("--t1", type=float, default=1.0, help="internal transmittance")
    p.add_argument("--t2", type=float, default=1.0, help="external transmittance")
    p.add_argument("--phi", type=float, default=0.0, help="phase shift")
    p.add_argument("--eta", type=float, default=1.0, help="loss transmittance for lossy Fisher information")


def _coerce(text: str):
    for convert in (int, float, complex):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _config_defaults(path: str, known: set[str]) -> dict:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = _coerce(value)
    unknown = sorted(set(out) - known)
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)}")
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="su11lso", description=__doc__)
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", parents=[], help="single-point evaluation (JSON)")
    _add_param_flags(p_point)
    p_point.add_argument(
        "--quantities",
        default="delta_phi,N,sql,hl,qfi,qcrb",
        help="comma-separated subset of: " + ",".join(QUANTITIES),
    )

    p_sweep = sub.add_parser("sweep", help="one-variable sweep to a file")
    _add_param_flags(p_sweep)
    # a t_k sweep needs a per-series sweep_target, which only presets set
    p_sweep.add_argument(
        "--var", required=True, choices=[v for v in SWEEP_VARIABLES if v != "t_k"]
    )
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--count", type=int, required=True)
    p_sweep.add_argument("--quantities", default="delta_phi")
    p_sweep.add_argument("--series-r", default="", help="comma list of r values, one curve each")
    p_sweep.add_argument("--output", required=True)
    p_sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_fig = sub.add_parser("figure", help="run a named figure preset")
    p_fig.add_argument("preset", choices=sorted(FIGURE_PRESETS))
    p_fig.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p_fig.add_argument("--output", required=True)
    p_fig.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_check = sub.add_parser("check", help="cross-validate analytic path against the Fock oracle")
    p_check.add_argument("--tolerance", type=float, default=1e-6)
    p_check.add_argument("--alphas", default="0,0.5,1")
    p_check.add_argument("--gs", default="0,0.5,1")
    p_check.add_argument("--rs", default="0,0.5,1")
    p_check.add_argument("--ts", default="1,0.7", help="transmittance values; all pairs are checked")
    p_check.add_argument("--phis", default="0.3,0.8,1.5")
    p_check.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    parser.sub_map = {
        "point": p_point,
        "sweep": p_sweep,
        "figure": p_fig,
        "check": p_check,
    }
    return parser


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _cmd_point(args) -> int:
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        print(f"unknown quantities: {sorted(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    params = InterferometerParams(
        g=args.g, alpha=args.alpha, r=args.r, t1=args.t1, t2=args.t2, phi=args.phi
    )
    values, flags = _evaluate_quantities(params, args.eta, quantities)
    payload = {
        "g": params.g,
        "alpha": params.alpha.real if params.alpha.imag == 0 else [params.alpha.real, params.alpha.imag],
        "r": params.r,
        "t1": params.t1,
        "t2": params.t2,
        "phi": params.phi,
        "eta": args.eta,
    }
    for q in quantities:
        v = values.get(q)
        if isinstance(v, float) and math.isinf(v):
            v = "inf"
        payload[q] = v
    payload["flags"] = flags
    print(json.dumps(payload, allow_nan=False))
    if "divergent" in flags or "degenerate" in flags:
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    series: tuple[SweepSeries, ...] = (SweepSeries(),)
    if args.series_r:
        series = tuple(
            SweepSeries(label=f"r={r:g}", overrides={"r": r}) for r in _float_list(args.series_r)
        )
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        count=args.count,
        fixed=InterferometerParams(
            g=args.g, alpha=args.alpha, r=args.r, t1=args.t1, t2=args.t2, phi=args.phi
        ),
        quantities=quantities,
        series=series,
        eta=args.eta,
    )
    write_sweep(spec, args.output, args.format)
    return EXIT_OK


def _cmd_figure(args) -> int:
    spec = figure_preset(args.preset, points=args.points)
    write_sweep(spec, args.output, args.format)
    return EXIT_OK


def _cmd_check(args) -> int:
    ts = _float_list(args.ts)
    t_pairs = tuple((t1, t2) for t1 in ts for t2 in ts)
    try:
        result = run_cross_check(
            alphas=_float_list(args.alphas),
            gs=_float_list(args.gs),
            rs=_float_list(args.rs),
            t_pairs=t_pairs,
            phis=_float_list(args.phis),
            rel_tol=args.tolerance,
            max_dim=args.max_dim,
        )
    except NonconvergedOracleError as exc:
        print(f"oracle non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    print("\n".join(result.summary_lines()))
    mismatches = [c for c in result.cells if c.flag.endswith("mismatch")]
    if mismatches:
        print(f"{len(mismatches)} divergence/degeneracy mismatches", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK if result.passed else EXIT_NONCONVERGED


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # config defaults: parse once to find --config, then re-parse with defaults
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        # one file may serve every subcommand, so a key need only be known to one
        known = {a.dest for p in (parser, *parser.sub_map.values()) for a in p._actions}
        try:
            defaults = _config_defaults(probe.config, known)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # subcommands parse into fresh namespaces, so defaults go everywhere
        parser.set_defaults(**defaults)
        for sub in parser.sub_map.values():
            sub.set_defaults(**defaults)
    args = parser.parse_args(argv)
    try:
        # overflow is reported by the finiteness checks, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "point":
                return _cmd_point(args)
            if args.command == "sweep":
                return _cmd_sweep(args)
            if args.command == "figure":
                return _cmd_figure(args)
            if args.command == "check":
                return _cmd_check(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergentSensitivityError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DEGENERATE
    except DegenerateConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DEGENERATE
    except NonconvergedOracleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NONCONVERGED
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
