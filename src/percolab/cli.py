"""Command-line interface.

Exit codes: 0 success, 2 invalid configuration or arguments (an n or
replicate count too large to allocate included) or standard output that
cannot be written (silently for a closed pipe), 3 numerical failure,
4 threshold violation under --check (or no check emitted at all).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

from .errors import InvalidConfigError, NumericalFailureError
from .processes import ENGINES, ProcessKind


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="percolab",
        description="Phase-transition laboratory for modified uniform-edge "
        "and bounded-size random graph processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ode = sub.add_parser(
        "ode", help="integrate the limit system and print the critical constants"
    )
    p_ode.add_argument("--tol", type=float, default=1.0e-8,
                       help="root tolerance for the critical time (default 1e-8)")
    p_ode.add_argument("--csv", metavar="PATH",
                       help="also write the constants as one-row CSV")

    p_sim = sub.add_parser("simulate", help="run one process and print its trace as CSV")
    p_sim.add_argument("--process", required=True,
                       choices=[k.value for k in ProcessKind])
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--t", type=float, required=True, help="end process time")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--initial", default="",
                       help="initial components as size:count,... (default empty)")
    p_sim.add_argument("--record", default="",
                       help="comma list of record times (default: end time only)")
    p_sim.add_argument("--engine", choices=ENGINES, default="auto",
                       help="auto: batch engine; python: scalar reference (default auto)")

    p_fp = sub.add_parser(
        "fixed-point",
        help="solve the survival equation for a size distribution at density t",
    )
    p_fp.add_argument("--dist", required=True, metavar="FILE",
                      help="CSV with header size,count")
    p_fp.add_argument("--t", type=float, required=True)
    p_fp.add_argument("--tol", type=float, default=1.0e-10)
    p_fp.add_argument("--csv", metavar="PATH", help="also write rows in the result schema")

    p_exp = sub.add_parser("experiment", help="run a configured experiment to CSV")
    p_exp.add_argument("--config", required=True, metavar="FILE", help="JSON config")
    p_exp.add_argument("--check", action="store_true",
                       help="exit 4 when any acceptance threshold fails or none was checked")
    p_exp.add_argument("--out", metavar="PATH", help="override the config output path")
    return parser


def _cmd_ode(args) -> int:
    from .harness import _fmt, _write_atomic
    from .ode import find_tc

    if not 0 < args.tol < math.inf:
        raise InvalidConfigError(f"--tol must be finite and > 0, got {args.tol}")
    data = find_tc(args.tol).as_dict()
    for key, value in data.items():
        print(f"{key}={_fmt(value)}")
    if args.csv:
        try:
            _write_atomic(Path(args.csv), ",".join(data) + "\n"
                          + ",".join(map(_fmt, data.values())) + "\n")
        except OSError as exc:
            raise InvalidConfigError(f"cannot write {args.csv}: {exc}") from exc
    return 0


def _cmd_simulate(args) -> int:
    from .harness import _fmt
    from .processes import TraceRecord, run_process

    try:
        record = tuple(float(x) for x in args.record.split(",") if x.strip()) or (args.t,)
    except ValueError as exc:
        raise InvalidConfigError(f"bad --record list {args.record!r}: {exc}") from exc
    records = run_process(
        args.process, args.n, initial=args.initial, t_end=args.t,
        record_at=record, seed=args.seed, engine=args.engine,
    )
    print(",".join(f.name for f in fields(TraceRecord)))
    for r in records:
        print(",".join(map(_fmt, astuple(r))))
    return 0


def _cmd_fixed_point(args) -> int:
    from .giant import solve_rho, supercritical_bounds
    from .harness import SRC_CLOSED_FORM, SRC_FIXED_POINT, CSV_COLUMNS, ResultRow
    from .ledger import SizeDistribution

    dist = SizeDistribution.from_csv(args.dist)
    fp = solve_rho(dist, args.t, tol=args.tol)
    bounds = None  # computed before any line is printed, so a refused one prints none
    if fp.rho > 0.0:
        bounds = supercritical_bounds(dist.s(2), dist.s(3), dist.s(4), args.t)
    print(f"rho={fp.rho:.10g}")
    print(f"regime={fp.regime}")
    print(f"iterations={fp.iterations}")
    print(f"bracket_width={fp.bracket_width:.3g}")
    rows = [ResultRow("fixed_point", "0", None, dist.n_vertices, "", args.t, None,
                      "rho", fp.rho, None, SRC_FIXED_POINT)]
    if bounds is not None:
        print(f"delta_n={bounds.delta_n:.10g}")
        print(f"lower={bounds.lower:.10g}")
        if bounds.upper_valid:
            print(f"upper={bounds.upper:.10g}")
        print(f"upper_valid={int(bounds.upper_valid)}")
        rows.append(ResultRow("fixed_point", "0", None, dist.n_vertices, "", args.t,
                              bounds.delta_n, "rho_lower_bound", bounds.lower, None,
                              SRC_CLOSED_FORM))
        if bounds.upper_valid:
            rows.append(ResultRow("fixed_point", "0", None, dist.n_vertices, "", args.t,
                                  bounds.delta_n, "rho_upper_bound", bounds.upper, None,
                                  SRC_CLOSED_FORM))
    if args.csv:
        from .harness import write_csv

        try:
            write_csv(rows, args.csv)
        except OSError as exc:
            raise InvalidConfigError(f"cannot write {args.csv}: {exc}") from exc
    return 0


def _cmd_experiment(args) -> int:
    from .harness import ExperimentConfig, run_config

    cfg = ExperimentConfig.from_json(args.config)
    if args.out:
        cfg.out = args.out
    return run_config(cfg, check=args.check)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "ode": _cmd_ode,
        "simulate": _cmd_simulate,
        "fixed-point": _cmd_fixed_point,
        "experiment": _cmd_experiment,
    }
    try:
        code = handlers[args.command](args)
        print(end="", flush=True)  # stdout fails here, not at exit; None stdout is skipped
        return code
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if exc.filename is not None:  # the commands report their own files' errors
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush succeeds
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
