"""Deterministic text output helpers shared by the exporters and the CLI."""

from __future__ import annotations

from pathlib import Path

import numpy as np

# fixed precision so exports are usable as golden files
SIGNIFICANT_DIGITS = 17
# the %-field that formats a real as fmt_real does
REAL = f"%.{SIGNIFICANT_DIGITS}g"
# rows fmt_blocks formats per template application: the values of a whole
# table at once (65537x5 in field exports) cost ~10 MB more peak memory
_FMT_BLOCK = 4096


def fmt_real(v: float) -> str:
    """Format a real with 17 significant digits (exact float round trip)."""
    return format(float(v), f".{SIGNIFICANT_DIGITS}g")


def fmt_blocks(row: str, size: int, columns, sep: str):
    """Rows 0 .. size-1 in blocks of _FMT_BLOCK rows joined by sep; columns(first,
    last) gives the column arrays of rows first .. last-1.  row is a %-template,
    REAL per real and %s per text column; REAL reads as fmt_real writes."""
    for first in range(0, size, _FMT_BLOCK):
        block = np.column_stack(columns(first, min(first + _FMT_BLOCK, size)))
        yield sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def write_blocks(path: str | Path, head: str, blocks, sep: str, tail: str) -> None:
    """Write head + sep.join(blocks) + tail with '\\n' newlines, one block at a
    time; the file is opened (truncated) here, so compute the values first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        fh.writelines(sep + block if k else block for k, block in enumerate(blocks))
        fh.write(tail)
