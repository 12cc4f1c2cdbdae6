import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from striplex import cli, construction, oracle, verify
from striplex.construction import solve_contacts, u_interior
from striplex.errors import NonConvergenceError
from striplex.ioutil import REAL, fmt_real
from striplex.oracle import GridSpec, grid_eval

from test_construction import sample_problem
from test_oracle import fmt_rows

REPO = Path(__file__).resolve().parent.parent
VEE = str(REPO / "data" / "splines" / "vee.spline")
CONSTANT = str(REPO / "data" / "splines" / "constant.spline")
GOLDEN = Path(__file__).resolve().parent / "golden" / "construct_standard.csv"
# N = 40 zigzag of scripts/kink_density_demo.py at q ~ 0.80: 1 to 114
# fixed-point iterations per point, so it pins the batched solve's masking
ZIGZAG = str(REPO / "data" / "splines" / "zigzag40.spline")
GOLDEN_ZIGZAG = Path(__file__).resolve().parent / "golden" / "construct_zigzag.csv"

STANDARD = ["--spline", VEE, "--L", "2", "--delta", "0.1"]


class TestParams:
    def test_admitted(self, capsys):
        assert cli.main(["params", *STANDARD]) == 0
        out = capsys.readouterr().out
        for key in (
            "L_f",
            "Lf_prime",
            "D",
            "delta_touch",
            "delta_banach",
            "delta",
            "contraction_q",
            "lip_Y_bound",
        ):
            assert f"{key} = " in out
        assert "admitted = true" in out

    def test_delta_frac_takes_half_the_cap(self, capsys):
        assert cli.main(["params", "--spline", VEE, "--L", "2", "--delta-frac", "0.5"]) == 0
        out = capsys.readouterr().out
        delta = float(out.split("delta = ")[1].split("\n")[0])
        touch = float(out.split("delta_touch = ")[1].split("\n")[0])
        banach = float(out.split("delta_banach = ")[1].split("\n")[0])
        assert delta == pytest.approx(0.5 * min(touch, banach), rel=1e-15)

    def test_invalid_parameters_exit_1(self, capsys):
        # past L ~ 5.6e102 the caps' power 3/2 overflows, and past
        # L ~ 1.35e154 L*L is inf, which makes the constants nan; below
        # L ~ 1.6e-162 L*L is 0, which window_radius divides by
        for spline, L in ((VEE, "0.4"), (VEE, "1e103"), (VEE, "1e300"), (CONSTANT, "1e-200")):
            assert cli.main(["params", "--spline", spline, "--L", L, "--delta", "0.1"]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and not captured.out, L

    def test_delta_at_cap_exit_2(self, capsys):
        assert cli.main(["params", "--spline", VEE, "--L", "2", "--delta", "2.7478119275391819"]) == 2
        out = capsys.readouterr().out
        assert "delta_touch" in out

    def test_missing_file_exit_1(self, capsys):
        assert cli.main(["params", "--spline", "/nonexistent.spline", "--L", "2", "--delta", "0.1"]) == 1

    def test_bad_delta_frac_exit_1(self, capsys):
        assert cli.main(["params", "--spline", VEE, "--L", "2", "--delta-frac", "1.5"]) == 1

    def test_usage_errors_exit_1(self, capsys):
        assert cli.main(["params", "--spline", VEE, "--L", "2"]) == 1  # no delta at all
        assert cli.main(["params", "--spline", VEE, "--L", "2", "--delta", "0.1", "--delta-frac", "0.5"]) == 1
        assert cli.main(["frobnicate"]) == 1


class TestConstruct:
    def test_constant_profile_column(self, tmp_path, capsys):
        spline = tmp_path / "zero.spline"
        spline.write_text("f0 0\nknot 0 0\n")
        out = tmp_path / "c.csv"
        code = cli.main(
            ["construct", "--spline", str(spline), "--L", "2", "--delta", "0.1", "--nx", "9", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y,Y,u,uprime"
        assert len(lines) == 10
        for line in lines[1:]:
            x, y, Y, u, uprime = (float(v) for v in line.split(","))
            assert u == pytest.approx(-0.2, abs=1e-15)
            assert Y == 0.0 and x == y and uprime == 0.0

    def test_linear_profile_column(self, tmp_path, capsys):
        spline = tmp_path / "ramp.spline"
        spline.write_text("f0 0\nknot 0 1\n")
        out = tmp_path / "c.csv"
        assert (
            cli.main(
                ["construct", "--spline", str(spline), "--L", "2", "--delta", "0.1", "--nx", "5", "--out", str(out)]
            )
            == 0
        )
        for line in out.read_text().strip().split("\n")[1:]:
            x, y, Y, u, uprime = (float(v) for v in line.split(","))
            assert u == pytest.approx(x - 0.1 * math.sqrt(3.0), abs=1e-13)
            assert uprime == 1.0

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli.main(["construct", *STANDARD, "--nx", "33", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_golden_file(self, tmp_path, capsys):
        out = tmp_path / "standard.csv"
        assert cli.main(["construct", *STANDARD, "--nx", "257", "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_zigzag_golden_file(self, tmp_path, capsys):
        out = tmp_path / "zigzag.csv"
        argv = ["construct", "--spline", ZIGZAG, "--L", "2", "--delta-frac", "0.8", "--nx", "513", "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == GOLDEN_ZIGZAG.read_bytes()

    def test_zigzag_near_the_banach_cap(self, tmp_path, capsys):
        # at q ~ 0.90 some points need 248 iterations, more than a fixed cap
        # of 200 allowed; the cap derived from q lets every point converge
        out = tmp_path / "zigzag.csv"
        argv = ["construct", "--spline", ZIGZAG, "--L", "2", "--delta-frac", "0.9", "--nx", "513", "--out", str(out)]
        assert cli.main(argv) == 0
        assert len(out.read_text().splitlines()) == 514

    def test_max_iter_is_an_unknown_flag(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["construct", *STANDARD, "--max-iter", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_out_required(self, capsys):
        assert cli.main(["construct", *STANDARD]) == 1
        # parsing comes before admission: delta = 3 is inadmissible for vee
        assert cli.main(["construct", "--spline", VEE, "--L", "2", "--delta", "3"]) == 1
        assert capsys.readouterr().err.endswith("error: the following arguments are required: --out\n")

    def test_zero_stopping_threshold_reaches_the_solve(self, tmp_path, capsys):
        # the @example of the exit-code property below: at delta = 2.5,
        # q ~ 0.68 > 0.5, so tol = 5e-324 underflows the stopping threshold
        # to 0 and the solve runs out of iterations (not out of flags)
        out = tmp_path / "c.csv"
        argv = ["construct", "--spline", VEE, "--L", "2", "--delta", "2.5", "--nx", "5", "--tol", "5e-324"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: contact solve at (x=-1.0, height=2.5) did not converge")
        assert not out.exists()

    def test_too_few_points_exit_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["construct", *STANDARD, "--nx", "0", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_window_exit_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["construct", *STANDARD, "--xmin", "nan", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestGrid:
    def test_constant_grid_rows(self, tmp_path, capsys):
        spline = tmp_path / "zero.spline"
        spline.write_text("f0 0\nknot 0 0\n")
        out = tmp_path / "g.csv"
        code = cli.main(
            [
                "grid", "--spline", str(spline), "--L", "2", "--delta", "0.1",
                "--nx", "3", "--nd", "3", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,d,u,provenance"
        assert len(lines) == 10
        for line in lines[1:]:
            x, d, u, prov = line.split(",")
            assert float(u) == pytest.approx(-2.0 * float(d), abs=1e-15)
            assert prov == "closed_form"

    def test_formats_carry_identical_numbers(self, tmp_path, capsys):
        csv_out, json_out = tmp_path / "g.csv", tmp_path / "g.json"
        base = ["grid", *STANDARD, "--nx", "4", "--nd", "3"]
        assert cli.main([*base, "--out", str(csv_out)]) == 0
        assert cli.main([*base, "--format", "structured", "--out", str(json_out)]) == 0
        doc = json.loads(json_out.read_text())
        rows = csv_out.read_text().strip().split("\n")[1:]
        assert len(doc["rows"]) == len(rows)
        for row, line in zip(doc["rows"], rows):
            x, d, u, _ = line.split(",")
            assert (row["x"], row["d"], row["u"]) == (float(x), float(d), float(u))

    def test_brute_force_provenance(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = cli.main(
            ["grid", *STANDARD, "--nx", "3", "--nd", "2", "--hy", "1e-4", "--provenance", "brute_force", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().strip().split("\n")[1].endswith("brute_force")

    def test_oversized_scan_exit_1(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        argv = ["grid", *STANDARD, "--provenance", "brute_force", "--hy", "1e-12", "--nx", "2", "--nd", "2"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: at grid point") and "boundary samples" in err

    @pytest.mark.parametrize(
        "spline, height, provenance, fmt, golden",
        [
            ("two_kinks", ["--delta", "0.1"], "mw_min", "csv", "grid_mw_min_two_kinks.csv"),
            # q ~ 0.9: the top-line samples are spaced most unevenly in x
            ("zigzag40", ["--delta-frac", "0.9"], "mw_max", "structured", "grid_mw_max_zigzag40.json"),
        ],
        ids=["mw_min_two_kinks", "mw_max_zigzag40"],
    )
    def test_envelope_golden_file(self, tmp_path, capsys, spline, height, provenance, fmt, golden):
        out = tmp_path / "grid"
        path = str(REPO / "data" / "splines" / f"{spline}.spline")
        argv = ["grid", "--spline", path, "--L", "2", *height, "--provenance", provenance]
        argv += ["--nx", "33", "--nd", "5", "--hy", "1e-4", "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == (GOLDEN.parent / golden).read_bytes()

    @pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "0"]])
    def test_solver_flags_reach_the_closed_form_fill(self, tmp_path, capsys, flags):
        # the same flags make construct exit 1; grid must not ignore them
        for command, sizes in (("grid", ["--nx", "3", "--nd", "2"]), ("construct", ["--nx", "3"])):
            out = tmp_path / f"{command}.csv"
            argv = [command, *STANDARD, *sizes, *flags, "--out", str(out)]
            assert cli.main(argv) == 1, command
            assert capsys.readouterr().err.startswith("error:")
            assert not out.exists()


def construct_reference(problem, nx: int, fmt: str) -> str:
    """The construct document as one string, built in memory the way the
    exports were before they were streamed to their file."""
    xs = np.linspace(-2.0, 2.0, nx)
    sol = solve_contacts(xs, problem.delta, problem)
    columns = [xs, sol.y, sol.Y, sol.value, problem.spline.derivative(sol.y)]
    if fmt == "csv":
        return "x,y,Y,u,uprime\n" + fmt_rows(",".join([REAL] * 5), columns, "\n") + "\n"
    rows = fmt_rows('{"x":%s,"y":%s,"Y":%s,"u":%s,"uprime":%s}' % ((REAL,) * 5), columns, ",")
    return '{"kind":"top_line","rows":[%s]}\n' % rows


def grid_reference(problem, nx: int, nd: int, fmt: str) -> str:
    """The closed-form grid document as one string, every field per row."""
    grid = grid_eval(problem, GridSpec(xmin=-2.0, xmax=2.0, nx=nx, nd=nd, h_y=1e-6))
    columns = [a.ravel() for a in np.broadcast_arrays(grid.xs[:, None], grid.ds[None, :])] + [grid.values.ravel()]
    if fmt == "csv":
        return "x,d,u,provenance\n" + fmt_rows(f"{REAL},{REAL},{REAL},closed_form", columns, "\n") + "\n"
    rows = fmt_rows('{"x":%s,"d":%s,"u":%s}' % ((REAL,) * 3), columns, ",")
    return '{"kind":"field_grid","provenance":"closed_form","xmin":%s,"xmax":%s,"nx":%d,"nd":%d,"rows":[%s]}\n' % (
        fmt_real(-2.0), fmt_real(2.0), nx, nd, rows
    )


ZIGZAG_WINDOW = ["--spline", ZIGZAG, "--L", "2", "--delta-frac", "0.8", "--xmin", "-2", "--xmax", "2"]


class TestStreamedExports:
    # construct and grid write their documents block by block; the file must
    # be the in-memory document byte for byte: one separator at each block
    # seam (4096 rows), the file truncated when it held a longer document,
    # and the x and d labels of each grid row those of its u

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @pytest.mark.parametrize(
        "command, sizes",
        [
            ("construct", ["--nx", "4095"]),
            ("construct", ["--nx", "4096"]),
            ("construct", ["--nx", "4097"]),
            ("construct", ["--nx", "8193"]),
            ("grid", ["--nx", "129", "--nd", "33"]),
            ("grid", ["--nx", "2", "--nd", "3"]),
        ],
    )
    def test_file_equals_in_memory_document(self, tmp_path, capsys, command, sizes, fmt):
        problem = sample_problem("zigzag40")
        if command == "construct":
            expected = construct_reference(problem, int(sizes[1]), fmt)
        else:
            expected = grid_reference(problem, int(sizes[1]), int(sizes[3]), fmt)
        out = tmp_path / "out"
        out.write_text("#" * (len(expected) + 10000))
        argv = [command, *ZIGZAG_WINDOW, *sizes, "--format", fmt, "--out", str(out)]
        for _ in range(2):
            assert cli.main(argv) == 0
            assert out.read_text(encoding="utf-8") == expected
        assert out.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "command, sizes",
        [("construct", ["--nx", "8193"]), ("grid", ["--nx", "8193", "--nd", "3"])],
        ids=["construct", "grid"],
    )
    def test_failed_solve_leaves_the_file_untouched(self, tmp_path, capsys, monkeypatch, command, sizes):
        monkeypatch.setattr(construction, "_iteration_cap", lambda problem, threshold: 1)
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        argv = [command, *ZIGZAG_WINDOW, *sizes, "--out", str(out)]
        assert cli.main(argv) == 1
        assert "did not converge in 1 iterations" in capsys.readouterr().err
        assert out.read_text() == "kept\n"


# each size is refused before anything is allocated, not by numpy's
# allocator; a size just past oracle.MAX_POINTS would be allocated for real
# where the cap is missing, so these sizes are far past it
@pytest.mark.parametrize(
    "command, sizes",
    [("construct", ["--nx", "1000000000000"]), ("grid", ["--nx", "1000000", "--nd", "1000000"])],
)
def test_oversized_point_count_exit_1(tmp_path, capsys, command, sizes):
    out = tmp_path / "out.csv"
    assert cli.main([command, *STANDARD, *sizes, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"points, more than {oracle.MAX_POINTS}\n")
    assert not out.exists()


def traced_peak_mb(argv) -> float:
    """Peak of the memory tracemalloc sees allocated during cli.main(argv)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "sizes, bound_mb",
    # bounds halfway between the peaks measured when the exports were built
    # in memory and the contact solve ran on all points at once (construct
    # 19.2 MB, grid 9.9 MB) and once both ran in blocks (6.3 and 5.5 MB)
    [(["construct", "--nx", "65537"], 12.8), (["grid", "--nx", "2049", "--nd", "33"], 7.7)],
)
def test_export_peak_memory_is_bounded(tmp_path, capsys, sizes, bound_mb):
    # the sizes of the field_zigzag benchmark's two commands, on its N = 40 zigzag
    argv = [sizes[0], *ZIGZAG_WINDOW, *sizes[1:], "--out", str(tmp_path / "out.csv")]
    assert traced_peak_mb(argv) <= bound_mb


def test_envelope_grid_peak_memory_is_bounded(tmp_path, capsys):
    # the envelope oracle at the default h_y = 1e-6 ranges over ~4e6 samples
    # per boundary line: 163.5 MB with every sample in whole-window arrays,
    # 4.2 MB with each computed where a scan reads it
    argv = ["grid", *STANDARD, "--provenance", "mw_min", "--nx", "9", "--nd", "3"]
    assert traced_peak_mb([*argv, "--out", str(tmp_path / "out.csv")]) <= 20.0


class TestReport:
    def test_vee_report_row(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli.main(["report", *STANDARD, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        vals = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
        assert vals["y0"] == 0.0 and vals["x0"] == 0.0
        assert vals["upp_minus_pred"] == pytest.approx(-0.5 / 1.025, rel=1e-15)
        assert vals["upp_plus_pred"] == pytest.approx(0.5 / 0.975, rel=1e-15)
        assert vals["upp_minus_fd"] == pytest.approx(-0.5 / 1.025, rel=1e-2)
        assert vals["upp_plus_fd"] == pytest.approx(0.5 / 0.975, rel=1e-2)

    def test_formats_match(self, tmp_path, capsys):
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert cli.main(["report", *STANDARD, "--out", str(csv_out)]) == 0
        assert cli.main(["report", *STANDARD, "--format", "structured", "--out", str(json_out)]) == 0
        doc = json.loads(json_out.read_text())
        header, row = csv_out.read_text().strip().split("\n")
        for c, v in zip(header.split(","), row.split(",")):
            assert doc["rows"][0][c] == float(v)

    @pytest.mark.parametrize(
        "spline, height, fmt, golden",
        [
            # 79 kinks at q ~ 0.80: pins the report arithmetic over many kinks
            ("zigzag40", ["--delta-frac", "0.8"], "csv", "report_zigzag40.csv"),
            ("two_kinks", ["--delta", "0.1"], "structured", "report_two_kinks.json"),
            # no kink: the header line alone
            ("ramp", ["--delta", "0.1"], "csv", "report_ramp.csv"),
        ],
        ids=["zigzag40", "two_kinks", "ramp"],
    )
    def test_golden_file(self, tmp_path, capsys, spline, height, fmt, golden):
        out = tmp_path / "report"
        path = str(REPO / "data" / "splines" / f"{spline}.spline")
        argv = ["report", "--spline", path, "--L", "2", *height, "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == (GOLDEN.parent / golden).read_bytes()


class TestVerify:
    def test_no_kink_profile_skips_and_passes(self, tmp_path, capsys):
        spline = tmp_path / "zero.spline"
        spline.write_text("f0 0\nknot 0 0\n")
        code = cli.main(
            ["verify", "--spline", str(spline), "--L", "2", "--delta", "0.1", "--nx", "5", "--nd", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SKIP kink_transfer" in out
        assert "FAIL" not in out

    def test_iteration_cap_reaches_every_contact_solve(self, capsys, monkeypatch):
        monkeypatch.setattr(construction, "_iteration_cap", lambda problem, threshold: 1)
        assert cli.main(["verify", *STANDARD, "--nx", "5", "--nd", "2"]) == 3
        lines = capsys.readouterr().out.splitlines()[:-1]
        status = {line.split()[1].rstrip(":"): line.split()[0] for line in lines}
        # the degenerate profiles have q = 0, so one iteration solves them
        # exactly; kink_transfer measures through the oracle and the
        # contact map's closed-form inverse and solves no contacts
        passing = {"degenerate_closed_forms", "kink_transfer"}
        # localization needs only the oracle grid, which is built first
        assert status.pop("localization") == "PASS"
        assert {name for name, s in status.items() if s == "PASS"} == passing
        for line in lines:
            if line.startswith("FAIL"):
                assert "did not converge in 1 iterations" in line

    def test_window_within_the_kink_margin_skips_gradient_identity(self, capsys, vee_problem):
        # every draw from this window lies within 1e-4 of vee's kink at 0, so
        # the redraws run out and the check skips instead of drawing for ever
        window = ["--xmin=-1e-4", "--xmax=1e-4", "--nx", "2", "--nd", "2"]
        config = verify.VerifyConfig(grid=GridSpec(xmin=-1e-4, xmax=1e-4, nx=2, nd=2, h_y=1e-6))
        res = verify.check_gradient_identity(vee_problem, config)
        assert res.status == "SKIP"
        assert res.detail.startswith("only 0 of 100 draws")
        cli.main(["verify", *STANDARD, *window])
        assert f"SKIP gradient_identity: {res.detail}" in capsys.readouterr().out.splitlines()

    def test_zigzag_near_the_banach_cap(self, capsys):
        # the four checks whose contact solves need more than 200 iterations
        # at q ~ 0.90 (248 at most)
        cli.main(["verify", "--spline", ZIGZAG, "--L", "2", "--delta-frac", "0.9"])
        lines = capsys.readouterr().out.splitlines()
        status = {line.split()[1].rstrip(":"): line.split()[0] for line in lines[:-1]}
        for name in ("oracle_equivalence", "fixed_point_contract", "gradient_identity", "lipschitz_quotient"):
            assert status[name] == "PASS", name

    def test_window_too_narrow_for_the_envelope_margin(self, capsys):
        # on vee at delta-frac 0.5 the envelope margin 10*D*delta = 7.33
        # outgrows the default window; the line names both
        argv = ["verify", "--spline", VEE, "--L", "2", "--delta-frac", "0.5", "--nx", "5", "--nd", "2"]
        assert cli.main(argv) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL envelope_coincidence: error: window [-2.0, 2.0] too narrow for margin 7.327498473437818" in lines

    def test_checks_keep_their_own_oracle_calls(self, capsys):
        # localization goes on from the oracle_equivalence scan, but each
        # check keeps its own call and its own error: at this h_y only the
        # 2x window is past the scan cap
        assert cli.main(["verify", *STANDARD, "--nx", "5", "--nd", "2", "--hy", "1.5e-8"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("PASS oracle_equivalence: ")
        assert lines[1] == (
            "FAIL localization: error: at grid point (x=-2.0, d=0.1): brute-force scan needs 1.42e+07 "
            "boundary samples, more than 10000000; raise h_y"
        )
        assert lines[-1] == "verify: 9 passed, 1 failed, 0 skipped"

    def test_failure_maps_to_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            verify, "run_acceptance", lambda problem, config=None: [verify.CheckResult("stub", "FAIL", "injected")]
        )
        assert cli.main(["verify", *STANDARD, "--nx", "5", "--nd", "2"]) == 3

    def test_raising_evaluator_keeps_localization(self, vee_problem):
        def broken(x, d):
            raise NonConvergenceError("injected")

        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=5, nd=2, h_y=1e-5)
        run = verify.run_acceptance(vee_problem, verify.VerifyConfig(grid=spec), u_override=broken)
        results = {r.name: r for r in run}
        assert results["oracle_equivalence"].status == "FAIL"
        assert results["oracle_equivalence"].detail == "error: injected"
        assert results["localization"].status == "PASS"

    def test_corrupted_evaluator_fails_oracle_equivalence(self, vee_problem):
        # small grid keeps the negative control cheap
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=5, nd=2, h_y=1e-5)
        corrupted = lambda x, d: u_interior(x, d, vee_problem) + 1e-6
        res = verify.check_oracle_equivalence(vee_problem, spec, corrupted, {})
        assert res.status == "FAIL"
        honest = lambda x, d: u_interior(x, d, vee_problem)
        res = verify.check_oracle_equivalence(vee_problem, spec, honest, {})
        assert res.status == "PASS"


# window and step values of every kind: finite (a delta above 2.75 is
# inadmissible for vee at L = 2), tiny (subnormal or near it), nan and
# +-inf.  A finite --hy stays >= 1e-5, where every scan the cap allows is
# short; the tiny ones reach the scan-size cap.
FINITE = st.floats(-4.0, 4.0)
TINY = st.sampled_from([5e-324, -5e-324, 1e-300, 2.2250738585072014e-308])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
ANY_VALUE = st.one_of(FINITE, TINY, NON_FINITE)
ANY_STEP = st.one_of(st.floats(1e-5, 4.0), st.floats(-4.0, 0.0), TINY, NON_FINITE)
# contact-solve tolerances: normal, tiny (5e-324 underflows the stopping
# threshold to 0), nan and +-inf, and negative
ANY_TOL = st.one_of(st.floats(1e-15, 1e-3), TINY, NON_FINITE, st.floats(-1.0, 0.0))


@given(
    st.sampled_from([["construct"], ["grid", "--provenance", "closed_form"], ["grid", "--provenance", "brute_force"]]),
    ANY_VALUE,
    ANY_VALUE,
    ANY_STEP,
    ANY_VALUE,
    # 10**12 points is past oracle.MAX_POINTS
    st.one_of(st.integers(0, 5), st.just(10**12)),
    ANY_TOL,
)
# at delta = 2.5, q ~ 0.68 > 0.5, so this tol underflows the stopping threshold to 0
@example(command=["construct"], xmin=-2.0, xmax=2.0, hy=1e-5, delta=2.5, nx=5, tol=5e-324)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_window_exits_with_a_contract_code(tmp_path, capsys, command, xmin, xmax, hy, delta, nx, tol):
    # every input ends in a documented exit code without a traceback, and
    # the usage/input (1) and inadmissible (2) codes say why on stderr
    capsys.readouterr()
    argv = [*command, "--spline", VEE, "--L", "2", "--delta", repr(delta), "--xmin", repr(xmin),
            "--xmax", repr(xmax), "--nx", str(nx), "--tol", repr(tol), "--out", str(tmp_path / "out.csv")]
    if command[0] == "grid":
        argv += ["--hy", repr(hy), "--nd", "2"]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert "unrecognized arguments" not in err
    if code in (1, 2):
        assert err.startswith("error:")


# the flags each subcommand reads, by the parent parsers of cli.build_parser
PROBLEM = ["--spline", "--L", "--delta", "--delta-frac"]
WINDOW = ["--xmin", "--xmax", "--nx", "--tol"]
SAMPLING = ["--nd", "--hy"]
OUTPUT = ["--out", "--format"]
READS = {
    "params": PROBLEM,
    "construct": PROBLEM + WINDOW + OUTPUT,
    "verify": PROBLEM + WINDOW + SAMPLING,
    "grid": PROBLEM + WINDOW + SAMPLING + OUTPUT + ["--provenance"],
    "report": PROBLEM + OUTPUT,
}
# a value each flag accepts; --out takes the test's output path
VALUES = {
    "--xmin": "-1", "--xmax": "1", "--nx": "5", "--tol": "1e-12", "--nd": "2", "--hy": "1e-4",
    "--format": "csv", "--provenance": "closed_form",
}


class TestFlags:
    @pytest.mark.parametrize("command", list(READS))
    def test_help_lists_the_flags_read(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        options = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert sorted(options) == sorted(READS[command])

    @pytest.mark.parametrize(
        "command, flag", [(command, flag) for command in READS for flag in READS["grid"] if flag not in READS[command]]
    )
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        argv = [command, *STANDARD, flag, VALUES.get(flag, str(out))]
        if "--out" in READS[command]:
            argv += ["--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: unrecognized arguments: {flag} ")
        assert not out.exists()
