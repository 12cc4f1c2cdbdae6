import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplex import ioutil
from striplex.ioutil import _FMT_BLOCK, REAL, WIDTH, fmt_real, format_reals, write_table

from test_oracle import fmt_rows


def texts(rows: np.ndarray) -> list:
    """The text of each format_reals row, checking that only NUL bytes
    follow it."""
    out = []
    for row in rows:
        text = bytes(row).rstrip(b"\0")
        assert bytes(row) == text.ljust(WIDTH, b"\0") and b"\0" not in text
        out.append(text.decode("ascii"))
    return out


def assert_formats_as_fmt_real(values):
    values = np.asarray(values, dtype=float)
    assert texts(format_reals(values)) == [fmt_real(v) for v in values.tolist()]


REALS = st.one_of(st.floats(), st.floats(1e-4, 1e15), st.floats(-1e15, -1e-4), st.floats(-1e-3, 1e-3))


@given(st.lists(REALS, max_size=40))
@example([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308])
@example([1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e15, 0.0), 1e15, 1.7976931348623157e308, 0.5, -123.0])
@settings(max_examples=300, deadline=None)
def test_format_reals_matches_fmt_real(values):
    assert_formats_as_fmt_real(values)


@pytest.mark.parametrize("p", range(2, 21))
def test_half_way_ties_round_to_even(p):
    # v = n / 2^(p+1) with n odd: v*10^p = n*5^p/2 lies half way between two
    # integers, and for n*5^p/2 in [1e16, 1e17) those are the candidates for
    # the 17 digits, so %.17g breaks the tie; both parities of the lower
    # neighbour occur
    rng = np.random.default_rng(p)
    low, high = -(-2 * 10**16 // 5**p), 2 * 10**17 // 5**p
    n = rng.integers(low, high, 400) | 1
    assert all((int(m) * 5**p) % 2 == 1 and 10**16 <= int(m) * 5**p // 2 < 10**17 for m in n)
    v = np.ldexp(n.astype(float), -(p + 1))
    assert np.array_equal(np.ldexp(v, p + 1), n)
    assert {int(m) * 5**p // 2 % 2 for m in n} == {0, 1}
    assert_formats_as_fmt_real(np.concatenate([v, -v]))


def test_neighbours_of_powers_of_ten():
    # the decimal exponent of a value is estimated from log10 and corrected
    # where the estimate is one off, which happens only next to 10^k
    tens = 10.0 ** np.arange(-6, 18)
    around = [tens]
    for direction in (0.0, math.inf):
        step = tens
        for _ in range(4):
            step = np.nextafter(step, direction)
            around.append(step)
    values = np.concatenate(around)
    assert_formats_as_fmt_real(np.concatenate([values, -values]))


def short_decimals() -> list:
    """Reals with short decimal expansions, for every decimal exponent k in
    [-4, 14] and count c in [1, 17] of significant digits: the c digits
    1, 0, ..., 0, 7 times 10^(k - c + 1) (fmt_real round-trips up to 15
    digits), and 10^k plus the dyadic 2^-f, whose f fraction digits end in
    5, for k >= 0 (exact: 10^k * 2^f < 2^53)."""
    values = []
    for k in range(-4, 15):
        for c in range(1, 18):
            values.append(float(("7" if c == 1 else "1" + "0" * (c - 2) + "7") + f"e{k - c + 1}"))
            if c > k + 1 >= 1:
                values.append(10.0**k + 2.0 ** (k + 1 - c))
    return values + [1500.0, 0.000125, 100.0625, 1e14 + 0.25, 0.1]


def exponent_and_count(text: str) -> tuple[int, int]:
    """The decimal exponent and the count of significant digits (through the
    last nonzero one) of a fixed-notation text."""
    whole, _, fraction = text.lstrip("-").partition(".")
    digits = (whole + fraction).lstrip("0")
    return len(whole) - 1 if whole != "0" else len(digits) - len(fraction) - 1, len(digits.rstrip("0"))


def test_every_exponent_sign_and_digit_count_formats_as_fmt_real():
    values = np.array(short_decimals())
    assert np.all((values >= 1e-4) & (values < 1e15))
    shapes = {exponent_and_count(fmt_real(v)) for v in values.tolist()}
    assert {k for k, _ in shapes} == set(range(-4, 15))
    assert {c for _, c in shapes} == set(range(1, 18))
    assert exponent_and_count("0.000125") == (-4, 3) and exponent_and_count("1500") == (3, 2)
    specials = np.array([0.0, -0.0, math.nan, 5e-324])
    assert_formats_as_fmt_real(np.concatenate([values, specials, -values, specials[::-1]]))


def test_lookup_tables_are_small_and_read_only():
    tables = [t for t in vars(ioutil).values() if isinstance(t, np.ndarray)] + ioutil._TEXT
    assert len(tables) >= 10 and sum(t.nbytes for t in tables) <= 100_000
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


COLUMNS = ("a", "b", "c")


def written(tmp_path, fmt: str, columns: list, constants=(), meta=()) -> str:
    path = tmp_path / "table"
    write_table(path, fmt, "probe", COLUMNS, len(columns[0]), lambda i, j: [c[i:j] for c in columns], constants, meta)
    return path.read_bytes().decode("ascii")


def reference(fmt: str, columns: list, constants=(), meta=()) -> str:
    """The table as the %-template writer laid it out."""
    if fmt == "csv":
        head = ",".join([*COLUMNS, *(name for name, _ in constants)]) + "\n"
        row = ",".join([REAL] * len(COLUMNS) + [text.replace("%", "%%") for _, text in constants])
        return head + (fmt_rows(row, columns, "\n") + "\n" if len(columns[0]) else "")
    row = "{%s}" % ",".join('"%s":%s' % (name, REAL) for name in COLUMNS)
    head = '{"kind":"probe"' + "".join(',"%s":"%s"' % pair for pair in constants)
    head += "".join(',"%s":%s' % (name, REAL % v) for name, v in meta)
    return head + ',"rows":[' + fmt_rows(row, columns, ",") + "]}\n"


@pytest.mark.parametrize("fmt", ["csv", "structured"])
@pytest.mark.parametrize(
    "columns",
    [
        [np.empty(0)] * 3,
        [np.array([-0.0]), np.array([0.1]), np.array([-2.5e300])],
        # every value outside 1e-4 <= |v| < 1e15: all through the %-field
        [
            np.array([math.nan, -math.inf, 5e-324, 1e15, -3e-5]),
            np.array([math.inf, 9.99e-5, -1e300, 2.0**60, -5e-324]),
            np.array([1e-310, -math.nan, 1e16, -1e-100, 1.7976931348623157e308]),
        ],
    ],
    ids=["0 rows", "1 row", "outside the fast range"],
)
def test_small_and_slow_tables_equal_the_template_writer(tmp_path, fmt, columns):
    constants, meta = (("provenance", "100% %s"),), (("n", 3), ("h", 1e-6))
    assert written(tmp_path, fmt, columns, constants, meta) == reference(fmt, columns, constants, meta)
    assert written(tmp_path, fmt, columns) == reference(fmt, columns)


@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_tables_across_blocks_equal_the_template_writer(tmp_path, fmt):
    # every column mixes zeros, negatives, values inside 1e-4 <= |v| < 1e15
    # and values outside it, in every block, the last block 3 rows long
    kinds = [0.0, -0.0, 0.1, -2.5, 1500.0, -100.0625, 9.99e-5, -1e15, 5e-324, math.nan, -math.inf, 1e300]
    rng = np.random.default_rng(2)
    size = 2 * _FMT_BLOCK + 3
    columns = []
    for i, _ in enumerate(COLUMNS):
        column = rng.choice(kinds, size) * rng.choice([1.0, -1.0], size)
        column[::5] = rng.standard_normal(column[::5].size) * 10.0 ** rng.integers(-6, 17, column[::5].size)
        column[-3:] = np.roll([-0.0, 7.5, -1e-300], i)
        columns.append(column)
    for column in columns:
        for block in np.split(column, [_FMT_BLOCK, 2 * _FMT_BLOCK]):
            fast = (np.abs(block) >= 1e-4) & (np.abs(block) < 1e15)
            assert np.any(block == 0.0) and np.any(np.signbit(block) & (block != 0.0))
            assert np.any(fast) and np.any(~fast & (block != 0.0))
    constants, meta = (("provenance", "closed_form"),), (("n", size), ("h", 1e-6))
    assert written(tmp_path, fmt, columns, constants, meta) == reference(fmt, columns, constants, meta)
