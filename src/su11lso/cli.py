"""Command-line front end.

Subcommands:
  point    evaluate requested quantities at one parameter point (JSON out)
  sweep    run a custom one-variable sweep to CSV / JSON-lines
  figure   run a named figure preset to CSV / JSON-lines
  check    analytic-versus-oracle cross validation over a parameter grid

Exit codes: 0 ok, 1 usage or I/O error, 2 a ``point`` flagged divergent or
degenerate (``sweep`` and ``check`` only report such flags), 3 oracle
non-convergence or a failed check.  A flat key=value config file
may supply flag defaults of any subcommand, parsed as the flags are;
explicit flags win, and an unknown key or a value that any flag owning its
key rejects is a usage error, whichever subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NonconvergedOracleError
from .moments import InterferometerParams, _series
from .sweeps import (
    DEFAULT_POINTS,
    FIGURE_PRESETS,
    PARAM_COLUMNS,
    QUANTITIES,
    SWEEP_VARIABLES,
    SweepSeries,
    SweepSpec,
    _evaluate_series,
    _param_columns,
    figure_preset,
    json_value,
    r_series,
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


def _config_defaults(path: str, known: set[str]) -> dict:
    """Raw string values by flag dest; argparse converts each through its flag's type."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    unknown = sorted(set(out) - known)
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)}")
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="su11lso", description=__doc__)
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="single-point evaluation (JSON)")
    p_point.set_defaults(run=_cmd_point)
    _add_param_flags(p_point)
    p_point.add_argument(
        "--quantities",
        default="delta_phi,N,sql,hl,qfi,qcrb",
        help="comma-separated subset of: " + ",".join(QUANTITIES),
    )

    p_sweep = sub.add_parser("sweep", help="one-variable sweep to a file")
    p_sweep.set_defaults(run=_cmd_sweep)
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
    p_fig.set_defaults(run=_cmd_figure)
    p_fig.add_argument("preset", choices=sorted(FIGURE_PRESETS))
    p_fig.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p_fig.add_argument("--output", required=True)
    p_fig.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_check = sub.add_parser("check", help="cross-validate analytic path against the Fock oracle")
    p_check.set_defaults(run=_cmd_check)
    # an omitted flag keeps run_cross_check's own default: the acceptance grid
    p_check.add_argument("--tolerance", type=float)
    p_check.add_argument("--alphas")
    p_check.add_argument("--gs")
    p_check.add_argument("--rs")
    p_check.add_argument("--ts", help="transmittance values; all pairs are checked")
    p_check.add_argument("--phis")
    p_check.add_argument(
        "--max-dim", type=int, help="cells d_a * d_b per oracle state-preparation grid"
    )
    parser.sub_map = (p_point, p_sweep, p_fig, p_check)
    return parser


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _names(text: str) -> tuple[str, ...]:
    return tuple(q.strip() for q in text.split(",") if q.strip())


def _params(args) -> InterferometerParams:
    return InterferometerParams(
        g=args.g, alpha=args.alpha, r=args.r, t1=args.t1, t2=args.t2, phi=args.phi
    )


def _cmd_point(args) -> int:
    quantities = _names(args.quantities)
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        print(f"unknown quantities: {sorted(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    params = _params(args)
    # the point's sweep row: a series of one
    state = _series(params)
    columns = _param_columns([*state.columns, args.eta], 1)
    cells, flags = _evaluate_series(state, [args.eta], quantities)
    payload = {c: json_value(v[0]) for c, v in zip(PARAM_COLUMNS, columns)}
    payload.update((q, json_value(cells[q][0])) for q in quantities)
    flags = flags[0].split(";") if flags[0] else []
    payload["flags"] = flags
    print(json.dumps(payload, allow_nan=False))
    if "divergent" in flags or "degenerate" in flags:
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    series = r_series(_float_list(args.series_r)) if args.series_r else (SweepSeries(),)
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        count=args.count,
        fixed=_params(args),
        quantities=_names(args.quantities),
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
    # the oracle loads scipy, which the analytic subcommands never need
    from .crosscheck import run_cross_check

    lists = ("alphas", "gs", "rs", "phis")
    kwargs = {k: _float_list(getattr(args, k)) for k in lists if getattr(args, k) is not None}
    if args.ts is not None:
        ts = _float_list(args.ts)
        kwargs["t_pairs"] = tuple((t1, t2) for t1 in ts for t2 in ts)
    if args.tolerance is not None:
        kwargs["rel_tol"] = args.tolerance
    if args.max_dim is not None:
        kwargs["max_dim"] = args.max_dim
    result = run_cross_check(**kwargs, progress=_report_group)
    print("\n".join(result.summary_lines()))
    return EXIT_OK if result.passed else EXIT_NONCONVERGED


def _report_group(cells):
    c = cells[0]
    print(
        f"  checked alpha={c.alpha:g} g={c.g:g} r={c.r:g} t1={c.t1:g}", file=sys.stderr, flush=True
    )


# one parser serves every call; a --config call builds its own for its defaults
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _PARSER
    # config defaults: parse once to find --config, then re-parse with defaults
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        parser = build_parser()
        # one file may serve every subcommand, so a key need only be known to one
        known = {a.dest for p in (parser, *parser.sub_map) for a in p._actions}
        try:
            defaults = _config_defaults(probe.config, known)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # subcommands parse into fresh namespaces, so defaults go everywhere;
        # each value passes every flag that owns its key, whichever command runs
        for sub in (parser, *parser.sub_map):
            for action in sub._actions:
                if action.dest in defaults:
                    try:
                        sub._check_value(action, sub._get_value(action, defaults[action.dest]))
                    except argparse.ArgumentError as exc:
                        sub.error(str(exc))
            sub.set_defaults(**defaults)
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonconvergedOracleError as exc:
        print(f"oracle non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
