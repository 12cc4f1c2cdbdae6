"""Command-line front end: params | construct | verify | grid | report.

Exit codes: 0 success, 1 usage or I/O or invalid parameters, 2 inadmissible
delta, 3 verification failure.  All numeric output carries 17 significant
digits so identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, construction, oracle, verify
from .boundary import BoundarySpline, parse_spline
from .errors import AdmissibilityError, StriplexError, UsageError, ValidationError
from .ioutil import REAL, fmt_real, fmt_rows, write_text
from .oracle import GridSpec
from .params import AdmissibleProblem, ProblemParams, admit, delta_caps, window_radius


@dataclass
class RunConfig:
    spline_path: str
    L: float
    delta: float | None
    delta_frac: float | None
    xmin: float
    xmax: float
    nx: int
    nd: int
    h_y: float
    tol: float
    max_iter: int
    out_path: str | None
    format: str
    provenance: str


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 means "inadmissible"
    # here, so route usage problems through UsageError -> exit 1 instead
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--spline", required=True, metavar="PATH", help="spline-spec file")
    common.add_argument("--L", required=True, type=float, help="cone slope (must exceed sup |f'|)")
    group = common.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, help="strip height")
    group.add_argument(
        "--delta-frac",
        type=float,
        help="strip height as a fraction in (0,1) of the admissible cap",
    )
    common.add_argument("--xmin", type=float, default=-2.0)
    common.add_argument("--xmax", type=float, default=2.0)
    common.add_argument("--nx", type=int, default=257)
    common.add_argument("--nd", type=int, default=17)
    common.add_argument("--hy", type=float, default=1e-6, help="oracle maximization step")
    common.add_argument("--tol", type=float, default=1e-12)
    common.add_argument("--max-iter", type=int, default=200)
    common.add_argument("--out", metavar="PATH", help="output file")
    common.add_argument("--format", choices=("csv", "structured"), default="csv")
    common.add_argument(
        "--provenance",
        choices=oracle.PROVENANCES,
        default="closed_form",
        help="evaluator for the grid subcommand",
    )

    parser = _Parser(prog="striplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("params", parents=[common], help="print admissibility constants")
    sub.add_parser("construct", parents=[common], help="sample the top-line solution")
    sub.add_parser("verify", parents=[common], help="run the acceptance checks")
    sub.add_parser("grid", parents=[common], help="export a field grid")
    sub.add_parser("report", parents=[common], help="export the kink transfer report")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.delta is None and not (0.0 < args.delta_frac < 1.0):
        raise UsageError(f"--delta-frac must lie in (0, 1), got {args.delta_frac!r}")
    return RunConfig(
        spline_path=args.spline,
        L=args.L,
        delta=args.delta,
        delta_frac=args.delta_frac,
        xmin=args.xmin,
        xmax=args.xmax,
        nx=args.nx,
        nd=args.nd,
        h_y=args.hy,
        tol=args.tol,
        max_iter=args.max_iter,
        out_path=args.out,
        format=args.format,
        provenance=args.provenance,
    )


def _load_spline(config: RunConfig) -> BoundarySpline:
    return parse_spline(Path(config.spline_path).read_text(encoding="utf-8"))


def _resolve_delta(config: RunConfig, spline: BoundarySpline) -> float:
    if config.delta is not None:
        return config.delta
    touch, banach = delta_caps(config.L, spline.max_slope, spline.slope_lipschitz)
    cap = min(touch, banach)
    if not math.isfinite(cap):
        raise UsageError("--delta-frac needs a finite admissibility cap; pass --delta instead")
    return config.delta_frac * cap


def _admit(config: RunConfig) -> AdmissibleProblem:
    spline = _load_spline(config)
    delta = _resolve_delta(config, spline)
    return admit(ProblemParams(L=config.L, delta=delta, spline=spline))


def _grid_spec(config: RunConfig, problem: AdmissibleProblem) -> GridSpec:
    return GridSpec(
        xmin=config.xmin,
        xmax=config.xmax,
        nx=config.nx,
        nd=config.nd,
        h_y=config.h_y,
        margin=10.0 * problem.D * problem.delta,
    )


def _require_out(config: RunConfig) -> str:
    if not config.out_path:
        raise UsageError("this subcommand needs --out PATH")
    return config.out_path


def cmd_params(config: RunConfig) -> int:
    spline = _load_spline(config)
    delta = _resolve_delta(config, spline)
    touch, banach = delta_caps(config.L, spline.max_slope, spline.slope_lipschitz)
    print(f"L_f = {fmt_real(spline.max_slope)}")
    print(f"Lf_prime = {fmt_real(spline.slope_lipschitz)}")
    print(f"delta_touch = {fmt_real(touch)}")
    print(f"delta_banach = {fmt_real(banach)}")
    print(f"delta = {fmt_real(delta)}")
    try:
        problem = admit(ProblemParams(L=config.L, delta=delta, spline=spline))
    except AdmissibilityError as exc:
        print(f"D = {fmt_real(window_radius(config.L, spline.max_slope))}")
        print(f"admitted = false ({exc})")
        return 2
    print(f"D = {fmt_real(problem.D)}")
    print(f"contraction_q = {fmt_real(problem.contraction_q)}")
    print(f"lip_Y_bound = {fmt_real(problem.lip_Y_bound)}")
    print(f"lip_Y_bound_variant = {fmt_real(problem.lip_Y_bound_variant)}")
    print("admitted = true")
    return 0


def cmd_construct(config: RunConfig) -> int:
    problem = _admit(config)
    out = _require_out(config)
    # the window rule GridSpec applies to the grid subcommand
    if not (math.isfinite(config.xmin) and math.isfinite(config.xmax) and config.xmin < config.xmax and config.nx >= 2):
        raise ValidationError(
            f"need finite xmin < xmax and nx >= 2, got {config.xmin!r}, {config.xmax!r}, nx={config.nx!r}"
        )
    xs = np.linspace(config.xmin, config.xmax, config.nx)
    sol = construction.solve_contacts(xs, problem.delta, problem, tol=config.tol, max_iter=config.max_iter)
    columns = [sol.x, sol.y, sol.Y, sol.value, problem.spline.derivative(sol.y)]
    if config.format == "csv":
        body = fmt_rows(",".join([REAL] * 5), columns, "\n")
        write_text(out, "x,y,Y,u,uprime\n" + body + "\n")
    else:
        body = fmt_rows('{"x":%s,"y":%s,"Y":%s,"u":%s,"uprime":%s}' % ((REAL,) * 5), columns, ",")
        write_text(out, '{"kind":"top_line","rows":[%s]}\n' % body)
    return 0


def cmd_grid(config: RunConfig) -> int:
    problem = _admit(config)
    out = _require_out(config)
    grid = oracle.grid_eval(
        problem, _grid_spec(config, problem), config.provenance, tol=config.tol, max_iter=config.max_iter
    )
    text = oracle.grid_to_csv(grid) if config.format == "csv" else oracle.grid_to_structured(grid)
    write_text(out, text)
    return 0


def cmd_report(config: RunConfig) -> int:
    problem = _admit(config)
    out = _require_out(config)
    reports = analysis.kink_transfer_report(problem)
    text = (
        analysis.kink_reports_to_csv(reports)
        if config.format == "csv"
        else analysis.kink_reports_to_structured(reports)
    )
    write_text(out, text)
    return 0


def cmd_verify(config: RunConfig) -> int:
    problem = _admit(config)
    vconfig = verify.VerifyConfig(grid=_grid_spec(config, problem), tol=config.tol, max_iter=config.max_iter)
    results = verify.run_acceptance(problem, vconfig)
    for res in results:
        print(f"{res.status} {res.name}: {res.detail}")
    failed = sum(r.failed for r in results)
    skipped = sum(r.status == "SKIP" for r in results)
    print(f"verify: {len(results) - failed - skipped} passed, {failed} failed, {skipped} skipped")
    return 3 if failed else 0


_COMMANDS = {
    "params": cmd_params,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "grid": cmd_grid,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StriplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
