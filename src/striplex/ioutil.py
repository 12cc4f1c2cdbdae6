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
    """The rows of the equal-length real columns, joined by sep.  row is a
    %-template with one REAL field per column, applied once per block of
    _FMT_BLOCK rows over the block's flattened values; every field reads as
    fmt_real writes it."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    blocks = (table[start : start + _FMT_BLOCK] for start in range(0, len(table), _FMT_BLOCK))
    return sep.join(sep.join([row] * len(block)) % tuple(block.ravel().tolist()) for block in blocks)


def write_text(path: str | Path, text: str) -> None:
    """Write text with '\\n' newlines regardless of platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
