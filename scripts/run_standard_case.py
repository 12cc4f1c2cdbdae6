#!/usr/bin/env python3
"""Run the standard desk case end to end through the striplex CLI.

Runs `params`, `verify`, `grid` and `report` in turn and stops at the first
nonzero exit code, which it returns; the field grid and the kink transfer
report go to the output directory.

Usage:
    python scripts/run_standard_case.py --outdir out/
"""

from __future__ import annotations

import argparse
from pathlib import Path

from striplex import cli

REPO = Path(__file__).resolve().parent.parent
VEE = REPO / "data" / "splines" / "vee.spline"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default: out)")
    parser.add_argument("--spline", default=str(VEE), help="spline-spec file")
    parser.add_argument("--L", default="2")
    parser.add_argument("--delta", default="0.1")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    problem = ["--spline", args.spline, "--L", args.L, "--delta", args.delta]
    for command, *flags in (
        ["params"],
        ["verify"],
        ["grid", "--nx", "129", "--nd", "9", "--hy", "1e-5", "--out", str(outdir / "field_grid.csv")],
        ["report", "--out", str(outdir / "kink_report.csv")],
    ):
        code = cli.main([command, *problem, *flags])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
