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
# (tracemalloc); 2048 take 0.9 MB and ~1.3x the time, 8192 3.7 MB and ~0.9x
_FMT_BLOCK = 4096

# %.17g writes |v| in [1e-4, 1e15) in fixed notation from the 17-digit
# integer T = round(|v|*10^p), p = 16 - floor(log10|v|) in [1, 21]; there
# |v|*10^p = M*5^p/2^s with M < 2^53, 5^p < 2^49 and s in [1, 63]
_FAST_MIN, _FAST_MAX = 1e-4, 1e15
_POW5 = np.array([5**p for p in range(22)], dtype=np.uint64)
# the text is built as 24 bytes in three uint64 words, byte j of the text in
# byte j % 8 (little-endian) of word j // 8; _KEEP[w][c] is the part of word
# w that keeps the first c bytes of the text
_KEEP = [
    np.array([(1 << 8 * min(max(c - 8 * w, 0), 8)) - 1 for c in range(WIDTH + 1)], dtype=np.uint64) for w in range(3)
]
# uint64 operands: numpy computes uint64 mixed with int64 in float64
_U = {c: np.uint64(c) for c in (0, 1, 8, 10, 16, 20, 32, 56, 64, 100, 103, 10486, 10**4, 10**8, 10**16, 10**17)}
_LOW32, _LANES7, _LANES4 = np.uint64(0xFFFFFFFF), np.uint64(0x0000007F0000007F), np.uint64(0x000F000F000F000F)
# a byte repeated through a word
_REP = {c: np.uint64(int.from_bytes(bytes([c]) * 8, "little")) for c in (0x7F, 0x80, 0x30, 0x2E, 0xFF)}
# the gap of a value below 1: "0." and then zeros
_ZERO_POINT = np.uint64(int.from_bytes(b"0.000000", "little"))


def fmt_real(v: float) -> str:
    """Format a real with 17 significant digits (exact float round trip)."""
    return format(float(v), f".{SIGNIFICANT_DIGITS}g")


def format_reals(values) -> np.ndarray:
    """The (n, WIDTH) uint8 array whose row i holds the ASCII bytes of
    fmt_real(values[i]), padded with NUL bytes, for the n values of the
    flattened float array.

    Zeros and the values that %.17g writes in fixed notation with at most 15
    integer digits, 1e-4 <= |v| < 1e15, are formatted with integer
    arithmetic, all at once (_fixed_words); every other value (nan, +-inf,
    subnormals, 0 < |v| < 1e-4, |v| >= 1e15) goes through REAL in one
    template application.  Both give the bytes of fmt_real."""
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    neg = np.signbit(v)
    fixed = (a >= _FAST_MIN) & (a < _FAST_MAX)
    zero = a == 0.0
    # every value outside the fixed range goes in as 1.0 and is replaced below
    words = _fixed_words(np.where(fixed, a, 1.0), neg)
    # a zero's digit "1", at byte 0 or after the '-', becomes "0"
    words[0] -= zero.astype(np.uint64) << (neg.astype(np.uint64) * _U[8])
    out = np.stack(words, axis=1).astype("<u8", copy=False).view(np.uint8)
    rest = np.flatnonzero(~(fixed | zero))
    if rest.size:
        text = (_REAL_PADDED * rest.size) % tuple(v[rest].tolist())
        padded = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(rest.size, WIDTH)
        out[rest] = padded * (padded != ord(" "))
    return out


def _fixed_words(a: np.ndarray, neg: np.ndarray) -> list:
    """The three text words of the 1-D reals a in [1e-4, 1e15), negative
    where neg: %g's fixed notation of their 17 significant digits.

    That is the integer digits, then '.' and the fraction without trailing
    zeros (no '.' when nothing is left of it); below 1, "0." and zeros
    before all the digits.  The digits D (17 bytes) split at byte q, the
    count of integer digits (0 below 1), and the part past q moves up by the
    gap, the bytes of '.' or of "0.0.." (fill), word by word; so does the
    whole text by one byte for the '-' of a negative value."""
    T, k = _decimal(a)
    digits, significant = _digit_words(T)
    q = np.maximum(k + 1, 0)
    gap = np.maximum(1 - k, 1)
    # the '.' and the fraction go when no significant digit lies past q
    length = np.maximum(significant + gap * (significant > q), q)
    fill = [_select(k < 0, _ZERO_POINT, _REP[0x2E]), _REP[0x2E], _REP[0x2E]]
    bits = (8 * gap).astype(np.uint64)
    words, up, minus = [], _U[0], np.uint64(ord("-"))
    for keep, d, f in zip(_KEEP, digits, fill):
        below = keep[q]
        high = d & ~below
        text = ((d & below) | (f & keep[q + gap] & ~below) | (high << bits) | up) & keep[length]
        up = high >> (_U[64] - bits)
        words.append(_select(neg, (text << _U[8]) | minus, text))
        minus = text >> _U[56]
    return words


def _digit_words(T: np.ndarray) -> tuple[list, np.ndarray]:
    """The 17 ASCII digits of T (10^16 <= T < 10^17) as three text words,
    and how many of them are significant: through the last nonzero one."""
    # T = lead | hi8 | lo8 (1 + 8 + 8 digits)
    lead = T // _U[10**16]
    hi8 = (T - lead * _U[10**16]) // _U[10**8]
    lo8 = T - T // _U[10**8] * _U[10**8]
    hi, lo = _eight_digits(hi8), _eight_digits(lo8)
    digits = [lead | (hi << _U[8]), (hi >> _U[56]) | (lo << _U[8]), lo >> _U[56]]
    # the 0x80 bit flags each nonzero digit's byte; np.frexp gives the bit
    # length of the flags, exactly (at most 8 bits set)
    used = [np.frexp(((d + _REP[0x7F]) & _REP[0x80]).astype(float))[1] // 8 for d in digits]
    significant = np.max([(u > 0) * (8 * w + u) for w, u in enumerate(used)], axis=0)
    return [d | (_REP[0x30] & keep[17]) for d, keep in zip(digits, _KEEP)], significant


def _select(flag: np.ndarray, yes, no) -> np.ndarray:
    """np.where(flag, yes, no) for uint64 words, by bit masks."""
    pick = flag.astype(np.uint64) * _REP[0xFF]
    return no ^ ((yes ^ no) & pick)


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, k) for the 1-D reals a in [1e-4, 1e15): 10^16 <= T < 10^17 and
    a = T*10^(k - 16) rounded half to even, which is how %.17g rounds.

    a = M*2^E exactly (np.frexp), and with p = 16 - k, T = round(M*5^p /
    2^s) for s = -(E + p).  k starts from floor(log10 a); where the
    truncated T falls outside [10^16, 10^17) that estimate was one off, and
    those values are redone with k -+ 1.  Rounding never lifts T to 10^17:
    that needs a within 5e-18 (half a unit of the 17th digit) of 10^(k+1)
    relatively, and the doubles below the powers of ten in range lie more
    than 2^-54 below them."""
    m, e = np.frexp(a)
    M = (m * 2.0**53).astype(np.uint64)
    E = e.astype(np.int64) - 53
    k = np.floor(np.log10(a)).astype(np.int64)
    T, off = _scaled(M, E, k)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] -= off[redo]
        T[redo], _ = _scaled(M[redo], E[redo], k[redo])
    return T, k


def _scaled(M: np.ndarray, E: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, off): T = M*2^E*10^(16 - k) rounded half to even, and off = +1
    where the truncated T is below 10^16 (k too large), -1 where it is at
    least 10^17 (k too small), else 0."""
    p = 16 - k
    s = (-(E + p)).astype(np.uint64)
    F = _POW5[p]
    # N = M*F = hi*2^64 + lo from the 32-bit limbs of M (< 2^53) and F (< 2^49)
    ml, mh, fl, fh = M & _LOW32, M >> _U[32], F & _LOW32, F >> _U[32]
    low = ml * fl
    mid = ml * fh + mh * fl
    carry = (low >> _U[32]) + (mid & _LOW32)
    lo = (low & _LOW32) | (carry << _U[32])
    hi = mh * fh + (mid >> _U[32]) + (carry >> _U[32])
    # T = floor(N / 2^s); s in [1, 63], so the remainder lies in lo
    T = (hi << (_U[64] - s)) | (lo >> s)
    rem = lo & ((_U[1] << s) - _U[1])
    half = _U[1] << (s - _U[1])
    off = (T < _U[10**16]).astype(np.int64) - (T >= _U[10**17])
    T += (rem > half) | ((rem == half) & (T & _U[1]).astype(bool))
    return T, off


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The decimal digits (values 0-9, not ASCII) of x < 10^8, eight bytes
    per word, the first digit in the low byte: split into 4-digit lanes of
    32 bits, then 2-digit lanes of 16 bits, then bytes, each lane divided by
    a multiply and shift that is exact on its range."""
    t = x // _U[10**4]
    v = t | ((x - t * _U[10**4]) << _U[32])
    t = ((v * _U[10486]) >> _U[20]) & _LANES7
    v = t | ((v - t * _U[100]) << _U[16])
    t = ((v * _U[103]) >> _U[10]) & _LANES4
    return t | ((v - t * _U[10]) << _U[8])


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
