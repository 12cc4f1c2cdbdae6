"""The benchmark workloads: inputs from the seed, CLI commands, and the
correctness checks run on their outputs outside the timed region.

Why each workload exists (see NOTES.md for the measurements):

* verify_vee    -- the paper's acceptance run; ~97 % of it is the grid-scan
                   oracle, so a pruned scan shows here.
* field_zigzag  -- 79 kinks at q ~ 0.80: scalar contact solves (1 to 114
                   fixed-point iterations per point), scalar boundary lookups
                   and CSV formatting, with no oracle call.  A batched solve
                   shows here; a pruned scan must leave it unchanged.
* oracle_coarse -- the oracle layer through many small scans with
                   golden-section refinement, and through the array path of
                   the envelope oracle.  Per-call overhead shows here.  Run
                   by hand only: BENCHMARK.json leaves it out to fit the
                   time budget of a full benchmark round (NOTES.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Each check is (label, ok); every check is one attempted operation.
Check = tuple[str, bool]

L = 2.0
REFERENCE_H_Y = 1e-6  # oracle step of the paper's acceptance run
ORACLE_TOL = 1e-9  # oracle_equivalence tolerance
ZIGZAG_N = 40
ZIGZAG_SPOT = 40  # points re-checked by brute force, per output file
VERIFY_CHECKS = 10


@dataclass
class Plan:
    spline: Path
    argvs: list[list[str]]
    outputs: list[str]
    points: int  # u-values written (verify: acceptance-grid points) per iteration
    check: Callable[[Path, str], list[Check]]
    delta: float
    notes: list[str] = field(default_factory=list)


def zigzag_text(n: int) -> str:
    """Knots at k/n on [-1, 1]; f' alternates between 0 and 0.5/n, so every
    segment of f' has slope +-0.5 and every interior knot is a kink (the
    profile of scripts/kink_density_demo.py)."""
    width = 1.0 / n
    amplitude = 0.5 * width
    lines = ["f0 0.0"]
    lines.extend(f"knot {k * width - 1.0!r} {amplitude * (k % 2)!r}" for k in range(2 * n + 1))
    return "\n".join(lines) + "\n"


def _problem(spline_path: Path, delta: float):
    from striplex.boundary import parse_spline
    from striplex.params import ProblemParams, admit

    spline = parse_spline(spline_path.read_text(encoding="utf-8"))
    return admit(ProblemParams(L=L, delta=delta, spline=spline))


def _rows(path: Path, header: str, expected: int) -> tuple[list[list[str]], list[Check]]:
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    rows = [line.split(",") for line in lines[1:]]
    ok = bool(lines) and lines[0] == header and len(rows) == expected
    return rows, [(f"{path.name}: header {header!r} and {expected} rows", ok)]


def _common(argv_tail: list[str], spline: Path) -> list[str]:
    return ["--spline", str(spline), "--L", repr(L), *argv_tail]


def verify_vee(root: Path, out: Path, seed: int) -> Plan:
    # the paper fixes this configuration: the seed does not enter
    spline = root / "data" / "splines" / "vee.spline"
    argv = ["verify", *_common(["--delta", "0.1"], spline)]

    def check(out: Path, stdout: str) -> list[Check]:
        lines = [line for line in stdout.splitlines() if line.split(" ", 1)[0] in ("PASS", "FAIL", "SKIP")]
        checks = [(line[:60], line.startswith("PASS ")) for line in lines]
        checks += [("missing check line", False)] * max(0, VERIFY_CHECKS - len(lines))
        return checks

    return Plan(spline=spline, argvs=[argv], outputs=[], points=257 * 17, check=check, delta=0.1)


def field_zigzag(root: Path, out: Path, seed: int) -> Plan:
    from striplex.boundary import parse_spline
    from striplex.params import delta_caps

    spline = out / "zigzag.spline"
    spline.write_text(zigzag_text(ZIGZAG_N), encoding="utf-8")
    parsed = parse_spline(spline.read_text(encoding="utf-8"))
    # the same arithmetic as `--delta-frac 0.8`: a fraction of the smaller cap
    delta = 0.8 * min(delta_caps(L, parsed.max_slope, parsed.slope_lipschitz))
    rng = np.random.default_rng(seed)
    shift = float(rng.uniform(0.0, 1.0 / ZIGZAG_N))
    window = ["--xmin", repr(-2.0 + shift), "--xmax", repr(2.0 + shift), "--delta-frac", "0.8"]
    grid = ["grid", *_common(window, spline), "--provenance", "closed_form", "--nx", "2049", "--nd", "33",
            "--out", str(out / "grid.csv")]
    construct = ["construct", *_common(window, spline), "--nx", "65537", "--out", str(out / "topline.csv")]

    def check(out: Path, stdout: str) -> list[Check]:
        from striplex.oracle import brute_force_u

        problem = _problem(spline, delta)
        grid_rows, checks = _rows(out / "grid.csv", "x,d,u,provenance", 2049 * 33)
        top_rows, top_checks = _rows(out / "topline.csv", "x,y,Y,u,uprime", 65537)
        checks += top_checks
        pick = np.random.default_rng(seed + 1)
        samples = []
        if grid_rows:
            for i in pick.choice(len(grid_rows), ZIGZAG_SPOT, replace=False):
                x, d, u, _ = grid_rows[i]
                samples.append((f"grid row {i}", float(x), float(d), float(u)))
        if top_rows:
            for i in pick.choice(len(top_rows), ZIGZAG_SPOT, replace=False):
                x, _, _, u, _ = top_rows[i]
                samples.append((f"topline row {i}", float(x), delta, float(u)))
        for label, x, d, u in samples:
            err = abs(u - brute_force_u((x, d), problem, REFERENCE_H_Y).value)
            checks.append((f"{label}: |u - brute| = {err:.3e} <= {ORACLE_TOL:g}", err <= ORACLE_TOL))
        return checks

    return Plan(spline=spline, argvs=[grid, construct], outputs=["grid.csv", "topline.csv"],
                points=2049 * 33 + 65537, check=check, delta=delta,
                notes=[f"window shift {shift!r}, delta {delta!r}"])


def oracle_coarse(root: Path, out: Path, seed: int) -> Plan:
    spline = root / "data" / "splines" / "two_kinks.spline"
    rng = np.random.default_rng(seed)
    shift = float(rng.uniform(-0.125, 0.125))
    h_y = 1e-4
    window = ["--xmin", repr(-2.0 + shift), "--xmax", repr(2.0 + shift), "--delta", "0.1", "--hy", repr(h_y)]
    brute = ["grid", *_common(window, spline), "--provenance", "brute_force", "--nx", "1025", "--nd", "17",
             "--out", str(out / "brute.csv")]
    mw = ["grid", *_common(window, spline), "--provenance", "mw_min", "--nx", "65", "--nd", "9",
          "--out", str(out / "mw_min.csv")]

    def check(out: Path, stdout: str) -> list[Check]:
        from striplex.construction import u_interior
        from striplex.oracle import brute_force_u

        problem = _problem(spline, 0.1)
        brute_rows, checks = _rows(out / "brute.csv", "x,d,u,provenance", 1025 * 17)
        mw_rows, mw_checks = _rows(out / "mw_min.csv", "x,d,u,provenance", 65 * 9)
        checks += mw_checks
        # the bound depends on the problem and h_y only; take it from one call
        bound = brute_force_u((0.0, problem.delta), problem, h_y).bound
        for i, (x, d, u, _) in enumerate(brute_rows):
            err = abs(float(u) - u_interior(float(x), float(d), problem))
            checks.append((f"brute row {i}: |u - closed| <= bound {bound:.3e}", err <= bound))
        gap_tol = 5.0 * (problem.L_f + problem.L) * h_y
        for i, (x, d, low, _) in enumerate(mw_rows):
            u = u_interior(float(x), float(d), problem)
            ok = float(low) <= u + 1e-12 and u - float(low) <= gap_tol
            checks.append((f"mw_min row {i}: low <= u and u - low <= {gap_tol:.3e}", ok))
        return checks

    return Plan(spline=spline, argvs=[brute, mw], outputs=["brute.csv", "mw_min.csv"],
                points=1025 * 17 + 65 * 9, check=check, delta=0.1, notes=[f"window shift {shift!r}"])


WORKLOADS = {"verify_vee": verify_vee, "field_zigzag": field_zigzag, "oracle_coarse": oracle_coarse}
