import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplex.ioutil import REAL, WIDTH, fmt_real, format_reals, write_table

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
