import math
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplex.analysis import second_derivatives_top
from striplex.boundary import BoundarySpline, parse_spline
from striplex.errors import DomainError, ParseError, ValidationError
from striplex.ioutil import fmt_real

SPLINE_FILES = sorted((Path(__file__).resolve().parent.parent / "data" / "splines").glob("*.spline"))

VEE_TEXT = """\
f0 0
knot -1 0.5
knot 0 0
knot 1 0.5
"""


@st.composite
def splines(draw, max_knots=6):
    n = draw(st.integers(1, max_knots))
    t0 = draw(st.floats(-3.0, 3.0))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    slopes = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    f0 = draw(st.floats(-5.0, 5.0))
    ts = [t0]
    for g in gaps:
        ts.append(ts[-1] + g)
    return BoundarySpline(f0=f0, knots=tuple(zip(ts, slopes)))


def knot_tables(spline):
    """Knot abscissas, slopes, segment slopes of f' and knot values of f,
    by the formulas of BoundarySpline.__post_init__."""
    ts = [t for t, _ in spline.knots]
    ss = [s for _, s in spline.knots]
    seg = [(ss[i + 1] - ss[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
    vals = [spline.f0]
    for i in range(len(ts) - 1):
        vals.append(vals[-1] + 0.5 * (ss[i] + ss[i + 1]) * (ts[i + 1] - ts[i]))
    return ts, ss, seg, vals


def scalar_value(spline, y):
    """The one-point branch of value that the array path replaced."""
    ts, ss, seg, vals = knot_tables(spline)
    if y <= ts[0]:
        return vals[0] + ss[0] * (y - ts[0])
    if y >= ts[-1]:
        return vals[-1] + ss[-1] * (y - ts[-1])
    i = bisect_right(ts, y) - 1
    dy = y - ts[i]
    return vals[i] + ss[i] * dy + 0.5 * seg[i] * dy * dy


def scalar_derivative(spline, y):
    """The one-point branch of derivative that the array path replaced."""
    ts, ss, seg, _ = knot_tables(spline)
    if y <= ts[0]:
        return ss[0]
    if y >= ts[-1]:
        return ss[-1]
    i = bisect_right(ts, y) - 1
    return ss[i] + seg[i] * (y - ts[i])


def searchsorted_derivative(spline, y):
    """The searchsorted/where derivative that np.interp replaced."""
    y = np.asarray(y, dtype=float)
    ts, ss, seg, _ = (np.array(a) for a in knot_tables(spline))
    if len(ts) == 1:
        return np.full_like(y, ss[0])[()]
    i = np.searchsorted(ts[1:-1], y, side="right")
    # far out a tail's segment term overflows, and at y = +-inf a flat one
    # meets 0 * inf; np.where drops both
    with np.errstate(over="ignore", invalid="ignore"):
        inner = ss[i] + seg[i] * (y - ts[i])
    return np.where(y <= ts[0], ss[0], np.where(y >= ts[-1], ss[-1], inner))[()]


def scalar_second_left(spline, y):
    """The one-point second_left that the array path replaced."""
    ts, _, seg, _ = knot_tables(spline)
    if y <= ts[0] or y > ts[-1] or len(ts) == 1:
        return 0.0
    # bisect on the open side so an exact knot hit picks the incoming segment
    i = bisect_right(ts, y) - 1
    if y == ts[i]:
        i -= 1
    return seg[i]


def scalar_second_right(spline, y):
    """The one-point second_right that the array path replaced."""
    ts, _, seg, _ = knot_tables(spline)
    if y < ts[0] or y >= ts[-1] or len(ts) == 1:
        return 0.0
    return seg[bisect_right(ts, y) - 1]


class TestParse:
    def test_vee_document(self):
        spline = parse_spline(VEE_TEXT)
        assert spline.f0 == 0.0
        assert spline.knots == ((-1.0, 0.5), (0.0, 0.0), (1.0, 0.5))
        # f'(y) = 0.5|y| on [-1, 1]
        for y in (-0.75, -0.2, 0.3, 0.9):
            assert spline.derivative(y) == pytest.approx(0.5 * abs(y), abs=1e-15)

    def test_single_knot(self):
        spline = parse_spline("f0 0\nknot 0 0.25\n")
        assert spline.knots == ((0.0, 0.25),)
        assert spline.derivative(-7.0) == 0.25
        assert spline.derivative(7.0) == 0.25

    def test_comments_and_blanks(self):
        spline = parse_spline("# header\n\nf0 1 # trailing\n  knot 2 3\n")
        assert spline.f0 == 1.0
        assert spline.knots == ((2.0, 3.0),)

    def test_order_violation(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            parse_spline("f0 0\nknot 1 0\nknot 0 1\n")

    def test_zero_knots(self):
        with pytest.raises(ValidationError, match="at least one knot"):
            parse_spline("f0 0\n")

    def test_missing_f0(self):
        with pytest.raises(ParseError, match="line 1: first directive must be 'f0 <value>'"):
            parse_spline("knot 0 1\n")
        with pytest.raises(ParseError, match="missing required 'f0 <value>' line"):
            parse_spline("# only a comment\n")

    def test_malformed_line_carries_number(self):
        for text, message in (
            ("f0 0\nknot 0 1\nknot oops 2\n", "line 3: not a real number"),
            ("f0 0\nwiggle 1 2\n", "line 2: unknown directive"),
            ("f0 0\nknot 0 1\nf0 1\n", "line 3: duplicate f0 directive"),
            ("# header\nf0 0 1\n", "line 2: expected 'f0 <value>'"),
            ("f0 0\nknot 0\n", "line 2: expected 'knot <t> <s>'"),
        ):
            with pytest.raises(ParseError, match=message):
                parse_spline(text)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            parse_spline("f0 inf\nknot 0 1\n")
        with pytest.raises(ValidationError, match="non-finite"):
            parse_spline("f0 0\nknot 0 nan\n")


class TestEval:
    def test_vee_one_sided_curvature_at_kink(self):
        spline = parse_spline(VEE_TEXT)
        assert spline.second_left(0.0) == -0.5
        assert spline.second_right(0.0) == 0.5

    def test_vee_value_at_zero(self):
        # exact integral of 0.5|t| from -1 to 0
        spline = parse_spline(VEE_TEXT)
        assert spline.value(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_single_knot_linear_value(self):
        spline = parse_spline("f0 0\nknot 0 0.25\n")
        assert spline.value(4.0) == pytest.approx(1.0, abs=1e-15)

    def test_tail_curvature_is_zero(self):
        spline = parse_spline(VEE_TEXT)
        assert spline.second_left(-3.0) == 0.0
        assert spline.second_right(3.0) == 0.0
        assert spline.second_left(-1.0) == 0.0
        assert spline.second_right(1.0) == 0.0

    def test_non_finite_input(self, vee_problem):
        # the spline's values, slopes and one-sided curvatures carry a
        # non-finite y through as the limits of its tails, and nan as nan;
        # the public entry that evaluates f'' at a caller's y refuses
        # non-finite y instead
        spline = vee_problem.spline
        assert spline.value(math.inf) == math.inf
        assert spline.value(-math.inf) == -math.inf
        assert spline.derivative(math.inf) == 0.5
        assert math.isnan(spline.value(math.nan))
        assert math.isnan(spline.derivative(math.nan))
        for method in (spline.second_left, spline.second_right):
            assert method(math.inf) == 0.0
            assert method(-math.inf) == 0.0
            assert math.isnan(method(math.nan))
            assert type(method(math.nan)) is np.float64
            both = method(np.array([math.nan, 0.5]))
            assert math.isnan(both[0]) and both[1] == 0.5
        for y in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                second_derivatives_top(y, vee_problem)
        with pytest.raises(DomainError):
            second_derivatives_top(np.array([0.0, math.nan]), vee_problem)

    def test_negative_zero_slope_reads_as_zero(self):
        # np.interp returns a knot's slope as stored, so a -0.0 slope would
        # print as -0 in the uprime column where the searchsorted formula
        # gave 0 (-0.0 + 0.5*0.0); the spline stores it as 0.0
        spline = BoundarySpline(f0=0.0, knots=((-1.0, -0.0), (0.0, -0.0), (1.0, 0.5)))
        assert [math.copysign(1.0, s) for _, s in spline.knots] == [1.0, 1.0, 1.0]
        for y in (-2.0, -1.0, 0.0):
            assert fmt_real(spline.derivative(y)) == "0"
            assert fmt_real(spline.derivative(np.array([y]))[0]) == "0"

    @pytest.mark.parametrize("path", SPLINE_FILES, ids=lambda path: path.stem)
    def test_derivative_at_non_finite_input(self, path):
        # f' at +-inf is the tail slope, with no warning: two_kinks' last
        # interior segment is flat, where 0 * inf once warned (an error under
        # this suite's filter) before np.where dropped it
        spline = parse_spline(path.read_text(encoding="utf-8"))
        first, last = spline.knots[0][1], spline.knots[-1][1]
        assert spline.derivative(-math.inf) == first
        assert spline.derivative(math.inf) == last
        assert spline.derivative(np.array([-math.inf, math.inf])).tolist() == [first, last]
        if len(spline.knots) == 1:
            # f' is constant: it reads the same at nan
            assert spline.derivative(math.nan) == first
        else:
            assert math.isnan(spline.derivative(math.nan))
            assert np.isnan(spline.derivative(np.array([math.nan, math.nan]))).all()

    @pytest.mark.parametrize("path", SPLINE_FILES, ids=lambda path: path.stem)
    def test_value_at_non_finite_input(self, path):
        # f at +-inf is the tail's limit with no warning: +-inf on a sloped
        # tail, and f's finite end value on a flat one (constant and zigzag40
        # on both tails), where the tail formula once read 0 * inf = nan
        spline = parse_spline(path.read_text(encoding="utf-8"))
        (t_first, s_first), (t_last, s_last) = spline.knots[0], spline.knots[-1]
        low = spline.value(t_first) if s_first == 0.0 else math.copysign(math.inf, -s_first)
        high = spline.value(t_last) if s_last == 0.0 else math.copysign(math.inf, s_last)
        assert spline.value(-math.inf) == low
        assert spline.value(math.inf) == high
        assert math.isnan(spline.value(math.nan))
        both = spline.value(np.array([-math.inf, math.inf, math.nan]))
        assert both[:2].tolist() == [low, high] and math.isnan(both[2])

    def test_vectorized_matches_scalar(self):
        spline = parse_spline(VEE_TEXT)
        ys = np.linspace(-2.5, 2.5, 101)
        vals = spline.value(ys)
        ders = spline.derivative(ys)
        for y, v, d in zip(ys, vals, ders):
            assert v == spline.value(float(y))
            assert d == spline.derivative(float(y))


@given(splines(), st.lists(st.floats(-1e6, 1e6), max_size=5), st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_array_path_equals_scalar_formulas(spline, extra, frac):
    # at every knot, a point inside each segment, on both tails near and far,
    # and at drawn points, the array path gives the one-point formulas' bits
    ts = [t for t, _ in spline.knots]
    inside = [a + frac * (b - a) for a, b in zip(ts, ts[1:])]
    ys = [*ts, *inside, ts[0] - 0.5, ts[-1] + 0.5, ts[0] - 1e6, ts[-1] + 1e6, *extra]
    values, derivatives = spline.value(np.array(ys)), spline.derivative(np.array(ys))
    assert [v.hex() for v in values.tolist()] == [scalar_value(spline, y).hex() for y in ys]
    assert [v.hex() for v in derivatives.tolist()] == [scalar_derivative(spline, y).hex() for y in ys]
    for y in ys:
        one = (spline.value(y), spline.derivative(y))
        assert [type(v) for v in one] == [np.float64, np.float64]
        assert [v.hex() for v in one] == [scalar_value(spline, y).hex(), scalar_derivative(spline, y).hex()]


@given(splines(), st.lists(st.floats(), max_size=5), st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_derivative_equals_searchsorted_formula(spline, extra, frac):
    # at every knot and its two float neighbours, inside each segment, on
    # both tails near, far and infinite, at nan and at drawn floats of any
    # size, np.interp gives the searchsorted formula's bits, for 0-d, 1-d
    # and 2-d input
    ts = np.array([t for t, _ in spline.knots])
    inside = ts[:-1] + frac * (ts[1:] - ts[:-1])
    tails = [ts[0] - 0.5, ts[-1] + 0.5, ts[0] - 1e6, ts[-1] + 1e6, -1e308, 1e308, -math.inf, math.inf, math.nan]
    ys = np.concatenate([ts, np.nextafter(ts, -math.inf), np.nextafter(ts, math.inf), inside, tails, extra])
    want = [v.hex() for v in searchsorted_derivative(spline, ys).tolist()]
    assert [v.hex() for v in spline.derivative(ys).tolist()] == want
    square = np.stack([ys, ys[::-1]])
    got = spline.derivative(square)
    assert got.shape == square.shape
    assert [v.hex() for v in got.ravel().tolist()] == want + want[::-1]
    for y, w in zip(ys.tolist(), want):
        one = (spline.derivative(y), spline.derivative(np.array(y)))
        assert [type(v) for v in one] == [np.float64, np.float64]
        assert [v.hex() for v in one] == [w, w]


@given(splines(), st.lists(st.floats(-1e6, 1e6), max_size=5), st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_one_sided_curvatures_equal_scalar_formulas(spline, extra, frac):
    # at every knot (where the two sides differ), inside each segment, on
    # both tails and at drawn points, the elementwise second_left and
    # second_right give the one-point formulas' bits, array and scalar alike
    ts = [t for t, _ in spline.knots]
    inside = [a + frac * (b - a) for a, b in zip(ts, ts[1:])]
    ys = [*ts, *inside, ts[0] - 0.5, ts[-1] + 0.5, ts[0] - 1e6, ts[-1] + 1e6, *extra]
    for method, scalar in ((spline.second_left, scalar_second_left), (spline.second_right, scalar_second_right)):
        want = [float(scalar(spline, y)).hex() for y in ys]
        assert [v.hex() for v in method(np.array(ys)).tolist()] == want
        one = [method(y) for y in ys]
        assert all(type(v) is np.float64 for v in one)
        assert [v.hex() for v in one] == want


# splines whose tails are flat or sloped, f0 = -0.0 with the first slope
# flat, negative or positive, f = -0.0 at the last knot, knots far apart,
# and a subnormal curvature
EDGE_SPLINES = [
    parse_spline(VEE_TEXT),
    BoundarySpline(f0=0.0, knots=((-1.0, 0.0), (0.0, 0.5), (1.0, 0.0))),
    BoundarySpline(f0=1.0, knots=((-1.0, 0.0), (1.0, 1.0))),
    BoundarySpline(f0=-0.0, knots=((0.0, 0.0),)),
    BoundarySpline(f0=-0.0, knots=((0.0, 0.0), (1.0, 1.0))),
    BoundarySpline(f0=-0.0, knots=((0.0, -1.0), (1.0, 1.0))),
    BoundarySpline(f0=-0.0, knots=((-0.0, 0.5), (1.0, -0.5))),
    BoundarySpline(f0=-0.0, knots=((-2.0, -0.0), (-1.0, 0.0), (0.0, -0.0))),
    # f = -0.0 at the last knot too: 0.5*(-5e-324 + 0.0) rounds to -0.0
    BoundarySpline(f0=-0.0, knots=((-1.0, -5e-324), (0.0, 0.0))),
    BoundarySpline(f0=0.0, knots=((-1e300, 1.0), (0.0, 0.0), (1e300, -1.0))),
    BoundarySpline(f0=0.0, knots=((0.0, 0.0), (1.0, 5e-324), (2.0, 0.0))),
]


def hexes(values):
    return [float(v).hex() for v in np.asarray(values).ravel().tolist()]


class TestPieceTableEdges:
    """value at the float edges of its piece table, against the one-point
    formulas: the tails at +-inf and at |y| = 1e300, every knot and its
    float neighbours, and signed zeros."""

    @pytest.mark.parametrize("spline", EDGE_SPLINES, ids=range(len(EDGE_SPLINES)))
    def test_knots_and_their_neighbours(self, spline):
        ts = np.array([t for t, _ in spline.knots])
        ys = np.concatenate([ts, np.nextafter(ts, -math.inf), np.nextafter(ts, math.inf), [0.0, -0.0]])
        want = [scalar_value(spline, y).hex() for y in ys.tolist()]
        assert hexes(spline.value(ys)) == want
        assert [spline.value(y).hex() for y in ys.tolist()] == want

    @pytest.mark.parametrize("spline", EDGE_SPLINES, ids=range(len(EDGE_SPLINES)))
    def test_tails_far_out_and_at_infinity(self, spline):
        # far out s*dy may overflow, but (h*dy)*dy adds no nan; at +-inf a
        # sloped tail reads +-inf, a flat one its knot value (-0.0 kept)
        s_first, s_last = spline.knots[0][1], spline.knots[-1][1]
        vals = knot_tables(spline)[3]
        far = [-1e300, 1e300, -1.7e308, 1.7e308]
        want = [scalar_value(spline, y).hex() for y in far]
        assert not any(v == "nan" for v in want)
        low = vals[0] if s_first == 0.0 else scalar_value(spline, -math.inf)
        high = vals[-1] if s_last == 0.0 else scalar_value(spline, math.inf)
        want += [low.hex(), high.hex()]
        ys = np.array([*far, -math.inf, math.inf])
        assert hexes(spline.value(ys)) == want
        assert hexes(spline.value(ys.reshape(2, 3))) == want
        assert [spline.value(y).hex() for y in ys.tolist()] == want

    def test_negative_zero_on_a_flat_tail(self):
        # f0 = -0.0 on a flat left tail: -0.0 + 0.0*dy keeps the sign left of
        # the knot, and at the knot -0.0 + 0.0*0.0 = +0.0
        spline = BoundarySpline(f0=-0.0, knots=((0.0, 0.0), (1.0, 1.0)))
        assert hexes(spline.value(np.array([-1.0, -1e300, 0.0]))) == ["-0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"]
        # with a negative first slope the knot itself reads -0.0 + -0.0
        spline = BoundarySpline(f0=-0.0, knots=((0.0, -1.0), (1.0, 1.0)))
        assert spline.value(0.0).hex() == "-0x0.0p+0"

    def test_subnormal_curvature_is_stored_as_is(self):
        # 0.5*f'' rounds a subnormal f'', so the one-sided curvatures and
        # Lip(f') read f'' itself
        spline = EDGE_SPLINES[-1]
        assert spline.slope_lipschitz == 5e-324
        ys = [0.0, 0.5, 1.0, 1.5, 2.0]
        assert hexes(spline.second_left(np.array(ys))) == [float(scalar_second_left(spline, y)).hex() for y in ys]
        assert hexes(spline.second_right(np.array(ys))) == [float(scalar_second_right(spline, y)).hex() for y in ys]
        assert columns(spline.kinks()) == ([1.0], [5e-324], [-5e-324])


@given(splines())
@settings(max_examples=200)
def test_knot_lookups_equal_np_over_the_knots(spline):
    # derivative, the one-sided curvatures and kinks() read the knots off
    # the piece table; at every knot, its float neighbours, +-inf and nan
    # they give the bits of np.interp and np.searchsorted over arrays built
    # from spline.knots, with the curvature 0 on both tails
    ts, ss = (np.array(column) for column in zip(*spline.knots))
    curvature = np.array([0.0, *knot_tables(spline)[2], 0.0])
    ys = np.concatenate([ts, np.nextafter(ts, -math.inf), np.nextafter(ts, math.inf), [-math.inf, math.inf, math.nan]])

    def second(y, side):
        return np.where(np.isnan(y), np.nan, curvature[np.searchsorted(ts, y, side=side)])

    assert hexes(spline.derivative(ys)) == hexes(np.interp(ys, ts, ss))
    assert hexes(spline.second_left(ys)) == hexes(second(ys, "left"))
    assert hexes(spline.second_right(ys)) == hexes(second(ys, "right"))
    inner = ts[1:-1]
    left, right = second(inner, "left"), second(inner, "right")
    jump = left != right
    assert [hexes(column) for column in spline.kinks()] == [hexes(inner[jump]), hexes(left[jump]), hexes(right[jump])]


class TestConstants:
    def test_vee(self):
        spline = parse_spline(VEE_TEXT)
        assert (spline.max_slope, spline.slope_lipschitz) == (0.5, 0.5)

    def test_single_knot(self):
        spline = parse_spline("f0 0\nknot 0 0.25\n")
        assert (spline.max_slope, spline.slope_lipschitz) == (0.25, 0.0)

    def test_one_segment(self):
        spline = BoundarySpline(f0=0.0, knots=((0.0, 0.0), (2.0, 1.0)))
        assert (spline.max_slope, spline.slope_lipschitz) == (1.0, 0.5)

    @given(splines(), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=200)
    def test_lipschitz_bounds_hold(self, spline, y1, y2):
        L_f, lip = spline.max_slope, spline.slope_lipschitz
        gap = abs(y1 - y2)
        assert abs(spline.derivative(y1) - spline.derivative(y2)) <= lip * gap + 1e-9
        assert abs(spline.value(y1) - spline.value(y2)) <= L_f * gap + 1e-9


def columns(kinks):
    return tuple(column.tolist() for column in kinks)


class TestKinks:
    def test_vee_single_kink(self):
        assert columns(parse_spline(VEE_TEXT).kinks()) == ([0.0], [-0.5], [0.5])

    def test_single_knot_none(self):
        assert columns(parse_spline("f0 0\nknot 0 0.25\n").kinks()) == ([], [], [])

    def test_collinear_slopes_none(self):
        spline = BoundarySpline(f0=0.0, knots=((0.0, 0.0), (1.0, 0.5), (2.0, 1.0)))
        assert columns(spline.kinks()) == ([], [], [])

    def test_two_kinks_sorted(self):
        spline = BoundarySpline(f0=0.0, knots=((-1.0, 0.5), (0.0, 0.0), (0.5, 0.25), (1.0, 0.25)))
        got = spline.kinks()
        assert got.y0.tolist() == [0.0, 0.5]
        assert got.second_left.tolist() == [-0.5, 0.5]
        assert got.second_right.tolist() == [0.5, 0.0]

    @given(splines())
    def test_one_sided_quotients_match_exactly(self, spline):
        ts = [t for t, _ in spline.knots]
        kinks = spline.kinks()
        for y0, second_left, second_right in zip(*columns(kinks)):
            i = ts.index(y0)
            h = 0.25 * min(ts[i] - ts[i - 1], ts[i + 1] - ts[i])
            right = (spline.derivative(y0 + h) - spline.derivative(y0)) / h
            left = (spline.derivative(y0 - h) - spline.derivative(y0)) / (-h)
            assert right == pytest.approx(second_right, abs=1e-9)
            assert left == pytest.approx(second_left, abs=1e-9)
        # the columns are the one-sided curvatures where the two disagree
        ys = np.array(ts[1:-1])
        jump = spline.second_left(ys) != spline.second_right(ys)
        assert columns(kinks) == columns((ys[jump], spline.second_left(ys[jump]), spline.second_right(ys[jump])))


@given(splines(), st.integers(0, 10_000))
@settings(max_examples=200)
def test_central_difference_matches_derivative(spline, salt):
    # f is quadratic between knots, so a non-straddling central difference
    # is exact up to rounding
    ts = [t for t, _ in spline.knots]
    pick = ts[salt % len(ts)]
    y = pick + 0.3 * 0.05
    h = 1e-6
    fd = (spline.value(y + h) - spline.value(y - h)) / (2 * h)
    assert fd == pytest.approx(spline.derivative(y), abs=1e-8)
