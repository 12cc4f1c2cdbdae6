"""Deterministic text output: the one place the CSV/JSON table layout of
every export, and the text of a real in it, are decided."""

from __future__ import annotations

from pathlib import Path

import numpy as np

# fixed precision so exports are usable as golden files
SIGNIFICANT_DIGITS = 17
# the %-field that formats a real as fmt_real does
REAL = f"%.{SIGNIFICANT_DIGITS}g"
# bytes of the longest fmt_real text, "-1.7976931348623157e+308"
WIDTH = 24
# REAL left-justified in WIDTH columns: the spaces it pads with occur in no
# text of a real
_REAL_PADDED = f"%-{WIDTH}.{SIGNIFICANT_DIGITS}g"
# rows write_table lays out per block.  On a 65537x5 `construct` export
# (2-core host) blocks of 4096 peak at 1.9 MB of numpy allocations
# (tracemalloc); 2048 take 0.9 MB and ~1.15x the time, 8192 3.7 MB and ~0.97x
_FMT_BLOCK = 4096

# %.17g writes |v| in [1e-4, 1e15) in fixed notation from the 17-digit
# integer T = round(|v|*10^p), p = 16 - k in [1, 21] for the decimal
# exponent k of |v|
_FAST_MIN, _FAST_MAX = 1e-4, 1e15
_ALL = np.uint64(2**64 - 1)


def _split(x):
    """Veltkamp's split of the float64 x into hi + lo, each of at most 26
    significant bits, so that products of the halves are exact."""
    c = x * (2.0**27 + 1)
    hi = c - (c - x)
    return hi, x - hi


# 10^p for p in [0, 21] (exact: 5^p < 2^53), split
_P10_HI, _P10_LO = _split(np.cumprod(np.r_[1.0, np.full(21, 10.0)]))
# _DIGITS4[g]: the four ASCII digits of g < 10^4, the first in the low
# byte; _COUNT4[g]: 2^(c-1) for the count c of them through the last
# nonzero one, 0 for g = 0; both over the grid of the four digits
_d = np.ix_(*[np.arange(10)] * 4)
_DIGITS4 = (0x30303030 + sum(d << 8 * i for i, d in enumerate(_d))).astype("<u4").ravel()
_count = np.maximum(np.maximum(_d[0] > 0, 2 * (_d[1] > 0)), np.maximum(3 * (_d[2] > 0), 4 * (_d[3] > 0)))
_COUNT4 = ((1 << _count) >> 1).astype(np.uint8).ravel()
# the text's layout by class j = k + 4 + 19*s (k in [-4, 14], s = 1 when
# negative): _POINT, the bit of the digits where '.' goes in (128: none,
# below 1); _LAST, the bits the 17th digit moves up for it; _SHIFT, the
# bits of the head before the digits; _HEAD, the head: '-' when negative,
# then "0." and zeros below 1
_k, _s = np.tile(np.arange(-4, 15), 2), np.repeat([0, 1], 19)
_q, _head = np.maximum(_k + 1, 0), _s + (_k < 0) * (1 - _k)
_POINT = np.where(_k >= 0, 8 * _q, 128).astype(np.uint64)
_LAST = np.where(_k >= 0, 8, 0).astype(np.uint64)
_SHIFT = (8 * _head).astype(np.uint64)
_HEAD = np.where(_s, np.uint64(0x3030302E302D), np.uint64(0x3030302E30)) & ~(_ALL << _SHIFT)
# _TEXT[w][j*18 + c]: the bytes of word w that hold the text of class j
# with c significant digits, where the point and the fraction are kept
# only for c > q, the count of integer digits
_c = np.arange(18)
_length = _head[:, None] + np.where(_c > _q[:, None], _c + (_k >= 0)[:, None], _q[:, None])
_TEXT = [~(_ALL << (8 * np.clip(_length - 8 * w, 0, 8)).astype(np.uint64)).ravel() for w in range(3)]
for _t in (_P10_HI, _P10_LO, _DIGITS4, _COUNT4, _POINT, _LAST, _SHIFT, _HEAD, *_TEXT):
    _t.flags.writeable = False
del _d, _count, _k, _s, _q, _head, _c, _length, _t


def fmt_real(v: float) -> str:
    """Format a real with 17 significant digits (exact float round trip)."""
    return format(float(v), f".{SIGNIFICANT_DIGITS}g")


def format_reals(values) -> np.ndarray:
    """The (n, WIDTH) uint8 array whose row i holds the ASCII bytes of
    fmt_real(values[i]), padded with NUL bytes, for the n values of the
    flattened float array.

    Zeros and the values that %.17g writes in fixed notation with at most 15
    integer digits, 1e-4 <= |v| < 1e15, are formatted with float and integer
    arithmetic, all at once (_fixed_words); every other value (nan, +-inf,
    subnormals, 0 < |v| < 1e-4, |v| >= 1e15) goes through REAL in one
    template application.  Both give the bytes of fmt_real."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fixed = (a >= _FAST_MIN) & (a < _FAST_MAX)
    zero = a == 0.0
    # every value outside the fixed range goes in as 1.0, a zero's digit 1
    # becomes 0, and the rest are replaced below
    out = _fixed_words(np.where(fixed, a, 1.0), np.signbit(v), zero).view(np.uint8)
    rest = np.flatnonzero(~(fixed | zero))
    if rest.size:
        text = (_REAL_PADDED * rest.size) % tuple(v[rest].tolist())
        padded = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(rest.size, WIDTH)
        out[rest] = padded * (padded != ord(" "))
    return out


def _fixed_words(a: np.ndarray, neg: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """The (n, 3) uint64 words of the text of the 1-D reals a in [1e-4,
    1e15), negative where neg, with the lead digit 0 where zero: byte i of
    the text in byte i % 8 (little-endian) of word i // 8.

    %g's fixed notation is the integer digits, then '.' and the fraction
    through its last nonzero digit (no '.' when nothing is left of it);
    below 1, "0." and zeros before all the digits.  So the 17 digits D
    split at the point into L and H, and Y = L | '.' | H moves up past the
    head; the bytes past the text are cleared.  numpy gives 0 for a uint64
    shift by 64 bits or more: a point at bit 128 leaves D whole, and a
    shift by 0 carries nothing into the next word."""
    T, k = _decimal(a)
    (D0, D1, D2), sig = _digits(T, zero)
    j = k + np.where(neg, 23, 4)
    point = _POINT[j]
    L0, L1 = D0 & ~(_ALL << point), D1 & (_ALL >> (128 - point))
    H0, H1 = D0 ^ L0, D1 ^ L1
    Y0 = L0 | (H0 << 8) | (0x2E << point)
    Y1 = L1 | (H1 << 8) | (H0 >> 56) | ((0x2E << 56) >> (120 - point))
    Y2 = (D2 << _LAST[j]) | (H1 >> 56)
    shift, keep = _SHIFT[j], j * 18 + sig
    out = np.empty((a.size, 3), dtype="<u8")
    np.bitwise_and((Y0 << shift) | _HEAD[j], _TEXT[0][keep], out=out[:, 0])
    np.bitwise_and((Y1 << shift) | (Y0 >> (64 - shift)), _TEXT[1][keep], out=out[:, 1])
    np.bitwise_and((Y2 << shift) | (Y1 >> (64 - shift)), _TEXT[2][keep], out=out[:, 2])
    return out


def _digits(T: np.ndarray, zero: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The 17 ASCII digits of T (10^16 <= T < 10^17) as three words, the
    first 0 where zero, and the count of significant ones, through the last
    nonzero digit.  T is a lead digit and four 4-digit groups; their digits
    gathered read as two uint64 words, their count codes as two uint16 C0,
    C1, and the bit length b = 8i + c of C1*2^16 + C0, for the last nonzero
    group i (0-3) with c digits, gives the count 1 + 4i + c (1 for b = 0)."""
    # the 8 digits after the lead digit, and the last 8
    half = np.empty((2, T.size), dtype=np.uint32)
    top = T // 10**8
    np.subtract(T, top * 10**8, out=half[1], casting="unsafe")
    half[0] = top
    lead = half[0] // np.uint32(10**8)
    half[0] -= lead * np.uint32(10**8)
    groups = np.empty((2, T.size, 2), dtype=np.int64)
    groups[:, :, 0] = high = half // np.uint32(10**4)
    np.subtract(half, high * np.uint32(10**4), out=groups[:, :, 1])
    E0, E1 = np.take(_DIGITS4, groups).view("<u8").reshape(2, -1)
    C0, C1 = np.take(_COUNT4, groups).view("<u2").reshape(2, -1)
    b = np.frexp(C1 * 65536.0 + C0)[1]
    lead -= zero
    D0 = (lead | np.uint32(0x30)).astype(np.uint64) | (E0 << 8)
    return (D0, (E0 >> 56) | (E1 << 8), E1 >> 56), 1 + b - 4 * (b >> 3)


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, k) for the 1-D reals a in [1e-4, 1e15): 10^16 <= T < 10^17 and
    a = T*10^(k - 16) rounded half to even, which is how %.17g rounds.

    k starts from floor(log10 a); where T falls outside [10^16, 10^17) that
    estimate was one off, and those values are redone with k -+ 1.  T is
    rounded, not truncated, but that moves no T across a bound: from below
    10^16 (or 10^17) to it needs a within 5e-17 relatively below a power of
    ten, and the doubles below the powers of ten in range lie more than
    2^-54 below them."""
    k = np.floor(np.log10(a)).astype(np.int64)
    T = _scaled(a, k)
    redo = np.flatnonzero((T - 10**16).view(np.uint64) >= np.uint64(9 * 10**16))
    if redo.size:
        k[redo] -= np.where(T[redo] < 10**16, 1, -1)
        T[redo] = _scaled(a[redo], k[redo])
    return T, k


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round(a*10^p) half to even, p = 16 - k, where it is at least 2^53.

    hi = fl(a*10^p) and lo, its error from Dekker's exact product of the
    split halves, give a*10^p = hi + lo exactly; at 2^53 and above hi is an
    even integer, so hi + rint(lo) rounds the sum half to even."""
    p = 16 - k
    ph, pl = _P10_HI[p], _P10_LO[p]
    hi = a * (ph + pl)
    ah, al = _split(a)
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def write_table(path: str | Path, fmt: str, kind: str, fields, size: int, columns, constants=(), meta=()) -> None:
    """Write a table of size rows to path as "csv" (a header line, then one
    line per row) or "structured" (one JSON document {"kind": kind, ...,
    "rows": [...]}), with '\\n' newlines.

    fields names the columns.  columns(first, last) gives the columns of
    rows first .. last-1, each a float array or the uint8 rows format_reals
    gave for its values; they are laid out _FMT_BLOCK rows at a time, so
    one block is held at once: each block is one byte matrix prefix | field
    | ... | suffix per row, whose NUL padding one mask drops.  constants are
    (name, text) pairs whose text is the same on every row: a CSV column
    after the fields, once in the JSON head.  meta are (name, number) pairs
    for the JSON head only, written by fmt_real.  The file is opened
    (truncated) here, so compute the values first."""
    if fmt == "csv":
        head = ",".join([*fields, *(name for name, _ in constants)]) + "\n"
        prefixes = ["", *[","] * (len(fields) - 1)]
        suffix, tail = "".join("," + text for _, text in constants) + "\n", ""
    else:
        head = '{"kind":"%s"' % kind + "".join(',"%s":"%s"' % pair for pair in constants)
        head += "".join(',"%s":%s' % (name, fmt_real(v)) for name, v in meta) + ',"rows":['
        prefixes = ['{"%s":' % fields[0], *(',"%s":' % name for name in fields[1:])]
        suffix, tail = "},", "]}\n"
    # the bytes of the last row's suffix that the document drops
    drop = 0 if fmt == "csv" else 1
    row, spans = b"", []
    for prefix in prefixes:
        row += prefix.encode("utf-8")
        spans.append(slice(len(row), len(row) + WIDTH))
        row += bytes(WIDTH)
    row = np.frombuffer(row + suffix.encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        for first in range(0, size, _FMT_BLOCK):
            last = min(first + _FMT_BLOCK, size)
            block = np.empty((last - first, row.size), dtype=np.uint8)
            block[:] = row
            for span, column in zip(spans, columns(first, last)):
                block[:, span] = column if column.dtype == np.uint8 else format_reals(column)
            data = block[block != 0]
            fh.write(data[: data.size - drop] if last == size else data)
        fh.write(tail.encode("utf-8"))
