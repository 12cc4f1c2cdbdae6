#!/usr/bin/env python3
"""Run the standard desk case end to end.

Prints the admissibility constants, runs the full acceptance checks, and
exports the top-line samples, a field grid, and the kink transfer report.

Usage:
    python scripts/run_standard_case.py --outdir out/
"""

from __future__ import annotations

import argparse
from pathlib import Path

from striplex import analysis, oracle, verify
from striplex.boundary import parse_spline
from striplex.ioutil import fmt_real, write_blocks
from striplex.params import ProblemParams, admit

REPO = Path(__file__).resolve().parent.parent
VEE = REPO / "data" / "splines" / "vee.spline"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default: out)")
    parser.add_argument("--spline", default=str(VEE), help="spline-spec file")
    parser.add_argument("--L", type=float, default=2.0)
    parser.add_argument("--delta", type=float, default=0.1)
    args = parser.parse_args(argv)

    spline = parse_spline(Path(args.spline).read_text(encoding="utf-8"))
    problem = admit(ProblemParams(L=args.L, delta=args.delta, spline=spline))
    print(f"L = {fmt_real(problem.L)}  delta = {fmt_real(problem.delta)}")
    print(f"L_f = {fmt_real(problem.L_f)}  Lip(f') = {fmt_real(problem.lip_fprime)}")
    print(f"D = {fmt_real(problem.D)}  caps = ({fmt_real(problem.delta_touch)}, {fmt_real(problem.delta_banach)})")
    print(f"contraction q = {fmt_real(problem.contraction_q)}  lip_Y_bound = {fmt_real(problem.lip_Y_bound)}")
    print()

    results = verify.run_acceptance(problem, verify.VerifyConfig())
    for res in results:
        print(f"{res.status} {res.name}: {res.detail}")
    failed = sum(r.failed for r in results)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    export_spec = oracle.GridSpec(xmin=-2.0, xmax=2.0, nx=129, nd=9, h_y=1e-5)
    field = oracle.grid_eval(problem, export_spec, "closed_form")
    write_blocks(outdir / "field_grid.csv", *oracle.grid_document(field, "csv"))
    write_blocks(outdir / "kink_report.csv", *analysis.report_document(analysis.kink_transfer_report(problem), "csv"))
    print(f"\nwrote {outdir / 'field_grid.csv'} and {outdir / 'kink_report.csv'}")
    return 3 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
