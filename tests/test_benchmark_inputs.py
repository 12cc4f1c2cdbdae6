"""The benchmark's workloads (perfbench/workloads.py) run in-process and pass
their own output checks, so a change that would fail a benchmark run fails
here first."""

import sys
import types
from pathlib import Path

import pytest

from striplex import cli

REPO = Path(__file__).resolve().parent.parent


def load_workloads(monkeypatch):
    """perfbench/workloads.py as a module, compiled from its text: nothing is
    written under perfbench/ (no bytecode cache).  Its dataclasses look the
    module up in sys.modules while the class body runs."""
    path = REPO / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["verify_vee", "field_zigzag", "oracle_coarse"])
def test_workload_passes_its_checks(name, tmp_path, capsys, monkeypatch):
    plan = load_workloads(monkeypatch).WORKLOADS[name](REPO, tmp_path, 1)
    for argv in plan.argvs:
        assert cli.main(argv) == 0, argv
    checks = plan.check(tmp_path, capsys.readouterr().out)
    assert checks
    assert [label for label, ok in checks if not ok] == []
