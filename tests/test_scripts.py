"""The scripts under scripts/, run in-process through their main()."""

import importlib.util
from pathlib import Path

import pytest

from striplex import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
VEE = SCRIPTS.parent / "data" / "splines" / "vee.spline"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["--levels", "5", "10"], ["--levels", "5", "--measure"]])
def test_kink_density_demo(argv, capsys):
    assert load("kink_density_demo").main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    levels = [int(a) for a in argv[1:] if a.isdigit()]
    assert [int(row[0]) for row in rows if row and row[0].isdigit()] == levels


def test_run_standard_case(tmp_path, capsys):
    assert load("run_standard_case").main(["--outdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 10
    assert "verify: 10 passed, 0 failed, 0 skipped" in lines
    assert "admitted = true" in lines
    assert (tmp_path / "kink_report.csv").is_file()
    # the script's field grid is the grid command's file at the same settings
    out = tmp_path / "cli_grid.csv"
    argv = ["grid", "--spline", str(VEE), "--L", "2", "--delta", "0.1", "--nx", "129", "--nd", "9", "--hy", "1e-5"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert (tmp_path / "field_grid.csv").read_bytes() == out.read_bytes()
