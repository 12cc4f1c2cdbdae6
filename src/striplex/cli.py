"""Command-line front end: params | construct | verify | grid | report.

Exit codes: 0 success, 1 usage or I/O or invalid parameters, 2 inadmissible
delta, 3 verification failure.  Each subcommand takes only the flags it
reads; any other flag is a usage error (exit 1).  All numeric output carries
17 significant digits so identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, construction, oracle, verify
from .boundary import parse_spline
from .errors import AdmissibilityError, ConfigurationError, StriplexError, UsageError
from .ioutil import fmt_real, write_table
from .oracle import GridSpec
from .params import ProblemParams, admit, delta_caps


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 means "inadmissible"
    # here, so route usage problems through UsageError -> exit 1 instead
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    defaults = verify.VerifyConfig().grid
    problem = _Parser(add_help=False)
    problem.add_argument("--spline", required=True, metavar="PATH", help="spline-spec file")
    problem.add_argument("--L", required=True, type=float, help="cone slope (must exceed sup |f'|)")
    group = problem.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, help="strip height")
    group.add_argument(
        "--delta-frac",
        type=float,
        help="strip height as a fraction in (0,1) of the admissible cap",
    )
    window = _Parser(add_help=False)
    window.add_argument("--xmin", type=float, default=defaults.xmin)
    window.add_argument("--xmax", type=float, default=defaults.xmax)
    window.add_argument("--nx", type=int, default=defaults.nx)
    window.add_argument("--tol", type=float, default=construction.DEFAULT_TOL)
    sampling = _Parser(add_help=False)
    sampling.add_argument("--nd", type=int, default=defaults.nd)
    sampling.add_argument("--hy", type=float, default=defaults.h_y, help="brute-force oracle scan step")
    output = _Parser(add_help=False)
    output.add_argument("--out", required=True, metavar="PATH", help="output file")
    output.add_argument("--format", choices=("csv", "structured"), default="csv")

    parser = _Parser(prog="striplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("params", parents=[problem], help="print admissibility constants").set_defaults(run=cmd_params)
    construct = sub.add_parser("construct", parents=[problem, window, output], help="sample the top-line solution")
    construct.set_defaults(run=cmd_construct)
    check = sub.add_parser("verify", parents=[problem, window, sampling], help="run the acceptance checks")
    check.set_defaults(run=cmd_verify)
    grid = sub.add_parser("grid", parents=[problem, window, sampling, output], help="export a field grid")
    grid.add_argument("--provenance", choices=oracle.PROVENANCES, default="closed_form", help="field evaluator")
    grid.set_defaults(run=cmd_grid)
    report = sub.add_parser("report", parents=[problem, output], help="export the kink transfer report")
    report.set_defaults(run=cmd_report)
    return parser


def _problem(args) -> ProblemParams:
    """The problem of --spline and --L, at --delta or at --delta-frac times
    the smaller admissibility cap."""
    if args.delta is None and not (0.0 < args.delta_frac < 1.0):
        raise UsageError(f"--delta-frac must lie in (0, 1), got {args.delta_frac!r}")
    spline = parse_spline(Path(args.spline).read_text(encoding="utf-8"))
    delta = args.delta
    if delta is None:
        # delta is not known yet, so the caps come from (L, spline) alone
        cap = min(delta_caps(args.L, spline.max_slope, spline.slope_lipschitz))
        if not math.isfinite(cap):
            raise UsageError("--delta-frac needs a finite admissibility cap; pass --delta instead")
        delta = args.delta_frac * cap
    return ProblemParams(L=args.L, delta=delta, spline=spline)


def cmd_params(args) -> int:
    params = _problem(args)
    touch, banach = params.caps
    print(f"L_f = {fmt_real(params.L_f)}")
    print(f"Lf_prime = {fmt_real(params.spline.slope_lipschitz)}")
    print(f"delta_touch = {fmt_real(touch)}")
    print(f"delta_banach = {fmt_real(banach)}")
    print(f"delta = {fmt_real(params.delta)}")
    print(f"D = {fmt_real(params.D)}")
    try:
        problem = admit(params)
    except AdmissibilityError as exc:
        print(f"admitted = false ({exc})")
        return 2
    print(f"contraction_q = {fmt_real(problem.contraction_q)}")
    print(f"lip_Y_bound = {fmt_real(problem.lip_Y_bound)}")
    print(f"lip_Y_bound_variant = {fmt_real(problem.lip_Y_bound_variant)}")
    print("admitted = true")
    return 0


def cmd_construct(args) -> int:
    problem = admit(_problem(args))
    oracle.require_window(args.xmin, args.xmax, args.nx)
    if not args.nx <= oracle.MAX_POINTS:
        raise ConfigurationError(f"top line needs nx = {args.nx} points, more than {oracle.MAX_POINTS}")
    xs = np.linspace(args.xmin, args.xmax, args.nx)
    sol = construction.solve_contacts(xs, problem.delta, problem, tol=args.tol)
    columns = [xs, sol.y, sol.Y, sol.value, problem.spline.derivative(sol.y)]
    fields = ("x", "y", "Y", "u", "uprime")
    write_table(args.out, args.format, "top_line", fields, args.nx, lambda i, j: [c[i:j] for c in columns])
    return 0


def cmd_grid(args) -> int:
    problem = admit(_problem(args))
    spec = GridSpec(xmin=args.xmin, xmax=args.xmax, nx=args.nx, nd=args.nd, h_y=args.hy)
    grid = oracle.grid_eval(problem, spec, args.provenance, tol=args.tol)
    oracle.write_grid(args.out, grid, args.format)
    return 0


def cmd_report(args) -> int:
    problem = admit(_problem(args))
    reports = analysis.kink_transfer_report(problem)
    analysis.write_report(args.out, reports, args.format)
    return 0


def cmd_verify(args) -> int:
    problem = admit(_problem(args))
    spec = GridSpec(xmin=args.xmin, xmax=args.xmax, nx=args.nx, nd=args.nd, h_y=args.hy)
    results = verify.run_acceptance(problem, verify.VerifyConfig(grid=spec, tol=args.tol))
    for res in results:
        print(f"{res.status} {res.name}: {res.detail}")
    failed = sum(r.failed for r in results)
    skipped = sum(r.status == "SKIP" for r in results)
    print(f"verify: {len(results) - failed - skipped} passed, {failed} failed, {skipped} skipped")
    return 3 if failed else 0


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            return exc.code
        return args.run(args)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StriplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
