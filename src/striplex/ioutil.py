"""Deterministic text output helpers shared by the exporters and the CLI."""

from __future__ import annotations

from pathlib import Path

import numpy as np

# fixed precision so exports are usable as golden files
SIGNIFICANT_DIGITS = 17
# the %-field that formats a real as fmt_real does
REAL = f"%.{SIGNIFICANT_DIGITS}g"
# rows fmt_rows formats per template application: the values of a whole
# table at once (65537x5 in field exports) cost ~10 MB more peak memory
_FMT_BLOCK = 4096


def fmt_real(v: float) -> str:
    """Format a real with 17 significant digits (exact float round trip)."""
    return format(float(v), f".{SIGNIFICANT_DIGITS}g")


def fmt_rows(row: str, columns: list, sep: str) -> str:
    """The rows of the equal-length column arrays, joined by sep.  row is a
    %-template with one field per column, REAL for reals and %s for text,
    applied once per block of _FMT_BLOCK rows over the block's flattened
    values; every REAL field reads as fmt_real writes it."""
    starts = range(0, len(columns[0]), _FMT_BLOCK)
    blocks = (np.column_stack([c[start : start + _FMT_BLOCK] for c in columns]) for start in starts)
    return sep.join(sep.join([row] * len(block)) % tuple(block.ravel().tolist()) for block in blocks)


def write_text(path: str | Path, text: str) -> None:
    """Write text with '\\n' newlines regardless of platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
