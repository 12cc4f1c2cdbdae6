"""Deterministic text output: the one place the CSV/JSON table layout of
every export is decided."""

from __future__ import annotations

from pathlib import Path

import numpy as np

# fixed precision so exports are usable as golden files
SIGNIFICANT_DIGITS = 17
# the %-field that formats a real as fmt_real does
REAL = f"%.{SIGNIFICANT_DIGITS}g"
# rows write_table formats per template application: the values of a whole
# table at once (65537x5 in field exports) cost ~10 MB more peak memory
_FMT_BLOCK = 4096


def fmt_real(v: float) -> str:
    """Format a real with 17 significant digits (exact float round trip)."""
    return format(float(v), f".{SIGNIFICANT_DIGITS}g")


def write_table(path: str | Path, fmt: str, kind: str, fields, size: int, columns, constants=(), meta=()) -> None:
    """Write a table of size rows to path as "csv" (a header line, then one
    line per row) or "structured" (one JSON document {"kind": kind, ...,
    "rows": [...]}), with '\\n' newlines.

    fields holds one (name, %-field) pair per column: REAL for a real, %s
    for text already formatted.  columns(first, last) gives the column
    arrays of rows first .. last-1; they are formatted _FMT_BLOCK rows at a
    time, so one block is held at once.  constants are (name, text) pairs
    whose text is the same on every row: a CSV column after the fields, once
    in the JSON head.  meta are (name, number) pairs for the JSON head only,
    written as REAL writes them.  The file is opened (truncated) here, so
    compute the values first."""
    if fmt == "csv":
        head = ",".join([name for name, _ in fields] + [name for name, _ in constants]) + "\n"
        row = ",".join([field for _, field in fields] + [text.replace("%", "%%") for _, text in constants])
        # the header line alone when there are no rows
        sep, tail = "\n", "\n" if size else ""
    else:
        head = '{"kind":"%s"' % kind + "".join(',"%s":"%s"' % pair for pair in constants)
        head += "".join(',"%s":%s' % (name, REAL % v) for name, v in meta) + ',"rows":['
        row = "{%s}" % ",".join('"%s":%s' % pair for pair in fields)
        sep, tail = ",", "]}\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for first in range(0, size, _FMT_BLOCK):
            block = np.column_stack(columns(first, min(first + _FMT_BLOCK, size)))
            fh.write((sep if first else "") + sep.join([row] * len(block)) % tuple(block.ravel().tolist()))
        fh.write(tail)
