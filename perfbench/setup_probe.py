"""Set-up probe run in a fresh interpreter by run.py.

Imports striplex from the given source tree, parses the workload's spline,
admits the problem and prints time.monotonic() (CLOCK_MONOTONIC, shared
with the parent), so the parent measures set-up from process start.

    python3 perfbench/setup_probe.py SRC_DIR SPLINE L DELTA
"""

import sys
import time
from pathlib import Path

src, spline_path, L, delta = sys.argv[1:5]
sys.path.insert(0, src)

import striplex  # noqa: E402,F401  -- the import is part of what is timed
from striplex.boundary import parse_spline  # noqa: E402
from striplex.params import ProblemParams, admit  # noqa: E402

spline = parse_spline(Path(spline_path).read_text(encoding="utf-8"))
admit(ProblemParams(L=float(L), delta=float(delta), spline=spline))
print(repr(time.monotonic()))
