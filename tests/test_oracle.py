import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplex import construction
from striplex.boundary import BoundarySpline, parse_spline
from striplex.errors import ConfigurationError, DomainError, StriplexError, ValidationError
from striplex.oracle import (
    MAX_SCAN,
    BruteResult,
    GridSpec,
    _scan_argmax,
    brute_force_u,
    grid_eval,
    grid_to_csv,
    grid_to_structured,
    map_points,
    mw_envelopes,
)
from striplex.params import ProblemParams, admit, delta_caps

from test_boundary import splines
from test_construction import WORKED_INTERIOR_POINT, WORKED_INTERIOR_VALUE, WORKED_VALUE, WORKED_X

SPLINES = Path(__file__).resolve().parent.parent / "data" / "splines"
SAMPLE_SPLINES = {
    path.stem: parse_spline(path.read_text(encoding="utf-8")) for path in sorted(SPLINES.glob("*.spline"))
}


def envelope_spec(problem, h=1e-4):
    return GridSpec(xmin=-2.0, xmax=2.0, nx=2, nd=2, h_y=h, margin=10.0 * problem.D * problem.delta)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(xmin=1.0, xmax=0.0, nx=4, nd=4, h_y=1e-6)
        with pytest.raises(ValidationError):
            GridSpec(xmin=0.0, xmax=1.0, nx=1, nd=4, h_y=1e-6)
        with pytest.raises(ValidationError):
            GridSpec(xmin=0.0, xmax=1.0, nx=4, nd=4, h_y=0.0)
        with pytest.raises(ValidationError):
            GridSpec(xmin=0.0, xmax=1.0, nx=4, nd=4, h_y=1e-6, margin=-1.0)

    def test_heights_reach_delta_exactly(self):
        spec = GridSpec(xmin=0.0, xmax=1.0, nx=4, nd=3, h_y=1e-6)
        assert spec.heights(0.1)[-1] == 0.1
        assert np.all(spec.heights(0.1, "mw_min") < 0.1)


class TestBruteForce:
    def test_constant(self, constant_problem):
        res = brute_force_u((0.4, 0.05), constant_problem, 1e-6)
        assert res.value == pytest.approx(1.0 - 2.0 * 0.05, abs=1e-14)
        assert res.argmax_y == pytest.approx(0.4, abs=1e-6)
        assert res.bound == pytest.approx(0.5 * 2.0 * 1e-6, abs=1e-20)

    def test_linear(self, linear_problem):
        res = brute_force_u((0.2, 0.1), linear_problem, 1e-6)
        assert res.argmax_y == pytest.approx(0.2 + 0.1 / math.sqrt(3.0), abs=2e-6)
        assert res.value == pytest.approx(0.2 - 0.1 * math.sqrt(3.0), abs=1e-12)

    def test_worked_point(self, vee_problem):
        res = brute_force_u((WORKED_X, 0.1), vee_problem, 1e-6)
        assert res.value == pytest.approx(WORKED_VALUE, abs=1e-10)
        assert res.value == pytest.approx(
            construction.u_interior(WORKED_X, 0.1, vee_problem), abs=1e-10
        )
        res = brute_force_u(WORKED_INTERIOR_POINT, vee_problem, 1e-6)
        assert res.value == pytest.approx(WORKED_INTERIOR_VALUE, abs=1e-10)

    def test_window_widening_changes_nothing(self, vee_problem):
        for x, d in ((0.03, 0.1), (-1.2, 0.04), (0.6, 0.07)):
            base = brute_force_u((x, d), vee_problem, 1e-6)
            wide = brute_force_u((x, d), vee_problem, 1e-6, window_factor=2.0)
            assert abs(wide.value - base.value) <= 1e-12

    def test_monotone_in_data(self, vee_problem):
        shifted = admit(
            ProblemParams(
                L=2.0,
                delta=0.1,
                spline=BoundarySpline(f0=0.7, knots=vee_problem.spline.knots),
            )
        )
        for x, d in ((0.1, 0.05), (-0.4, 0.1)):
            lo = brute_force_u((x, d), vee_problem, 1e-5)
            hi = brute_force_u((x, d), shifted, 1e-5)
            assert hi.value - lo.value == pytest.approx(0.7, abs=1e-12)

    def test_lipschitz_in_point(self, vee_problem):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = (float(rng.uniform(-1, 1)), float(rng.uniform(0.02, 0.1)))
            q = (float(rng.uniform(-1, 1)), float(rng.uniform(0.02, 0.1)))
            vp = brute_force_u(p, vee_problem, 1e-5).value
            vq = brute_force_u(q, vee_problem, 1e-5).value
            assert abs(vp - vq) <= 2.0 * math.hypot(p[0] - q[0], p[1] - q[1]) + 1e-10

    def test_domain(self, vee_problem):
        with pytest.raises(DomainError):
            brute_force_u((0.0, 0.0), vee_problem, 1e-6)
        with pytest.raises(DomainError):
            brute_force_u((0.0, 0.05), vee_problem, -1e-6)

    def test_scan_size_checked_before_allocating(self, vee_problem):
        # 2 * D * d / h_y samples: ~1e11 here
        with pytest.raises(ConfigurationError, match=str(MAX_SCAN)):
            brute_force_u((0.0, 0.1), vee_problem, 1e-12)

    def test_scalar_point_gives_numpy_scalars(self, vee_problem):
        res = brute_force_u((0.3, 0.05), vee_problem, 1e-5)
        assert type(res.value) is np.float64 and type(res.argmax_y) is np.float64

    def test_batch_error_names_the_point(self, vee_problem):
        with pytest.raises(DomainError, match=r"at grid point \(x=0.2, d=0.0\)"):
            brute_force_u((np.array([0.1, 0.2]), np.array([0.05, 0.0])), vee_problem, 1e-5)

    def test_batch_error_names_the_first_bad_point(self, vee_problem):
        # every point is checked before any scan: the first bad point in C
        # order is named with its own message, even where a later point
        # fails a check that comes earlier at one point
        xs = np.array([[0.1, 0.2], [math.inf, 0.4]])
        ds = np.array([[0.05, 0.0], [0.05, 0.05]])
        with pytest.raises(DomainError, match=r"^at grid point \(x=0.2, d=0.0\): height must lie in \(0, delta\]"):
            brute_force_u((xs, ds), vee_problem, 1e-5)
        # ~1.1e8 samples at d = 0.1, ~1.1e5 at d = 1e-4
        with pytest.raises(ConfigurationError, match=r"^at grid point \(x=0.1, d=0.1\): brute-force scan needs"):
            brute_force_u((np.array([0.1, math.nan]), np.array([0.1, 1e-4])), vee_problem, 1e-9)


def scalar_golden_section_max(fn, lo, hi, tol=1e-13, max_iter=90):
    """The one-bracket golden-section search the batched refinement
    replaced: maximize a unimodal fn on [lo, hi], returning (arg, value)
    and never falling below any probed point."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best_y, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
            if fc > best_v:
                best_y, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
            if fd > best_v:
                best_y, best_v = d, fd
    mid = 0.5 * (a + b)
    fmid = fn(mid)
    if fmid > best_v:
        best_y, best_v = mid, fmid
    return best_y, best_v


def full_scan_brute_force_u(point, problem, h_y, window_factor=1.0):
    """The full grid scan the pruned scan replaced: every sample of the
    window, np.argmax, then the one-point refinement."""
    x, d = point
    spline = problem.spline
    L = problem.L
    radius = window_factor * problem.D * d + h_y
    n = int(math.ceil(radius / h_y))
    ys = x + h_y * np.arange(-n, n + 1)
    vals = spline.value(ys) - L * np.sqrt(d * d + (x - ys) ** 2)
    k = int(np.argmax(vals))

    def objective(y: float) -> float:
        return spline.value(y) - L * math.hypot(d, x - y)

    lo = ys[max(k - 1, 0)]
    hi = ys[min(k + 1, len(ys) - 1)]
    y_star, v_star = scalar_golden_section_max(objective, lo, hi)
    if v_star < vals[k]:
        y_star, v_star = float(ys[k]), float(vals[k])
    return BruteResult(value=float(v_star), argmax_y=float(y_star), bound=0.5 * (problem.L_f + L) * h_y)


def scan_problem(spline, delta_frac):
    """An admitted problem for spline with L = max(2, 1.5*L_f + 1) and
    delta at most 0.1, which keeps the scans short enough for the reference."""
    L = max(2.0, 1.5 * spline.max_slope + 1.0)
    cap = min(delta_caps(L, spline.max_slope, spline.slope_lipschitz))
    return admit(ProblemParams(L=L, delta=min(delta_frac * cap, 0.1), spline=spline))


@given(
    st.one_of(st.sampled_from(list(SAMPLE_SPLINES.values())), splines()),
    st.floats(0.05, 0.95),
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6)), min_size=1, max_size=3),
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=2),
    st.floats(-6.0, -3.0),
    st.sampled_from([1.0, 2.0]),
)
@example(SAMPLE_SPLINES["constant"], 0.5, [0.4], [0.5], -6.0, 1.0)  # D = 0: a 3-sample scan
@example(SAMPLE_SPLINES["vee"], 0.5, [0.03], [1.0], -6.0, 2.0)  # the longest acceptance scan
# Lip(f') = 0: the second-order cell bound is max(v_a, v_b)
@example(SAMPLE_SPLINES["ramp"], 0.5, [0.2, -1e5], [1.0], -6.0, 2.0)
@example(BoundarySpline(f0=0.5, knots=((0.3, -0.8),)), 0.5, [2.5], [0.4, 1.0], -5.0, 1.0)
# heights whose scans start at strides 1, 64 and 4096: one mesh, three tree depths
@example(SAMPLE_SPLINES["vee"], 0.5, [-0.4, 0.03], [0.0005, 0.01, 1.0], -6.0, 1.0)
@settings(max_examples=200, deadline=None)
def test_pruned_scan_matches_full_scan(spline, delta_frac, xs, d_fracs, log_h_y, window_factor):
    # every sample the pruned scan drops is strictly below the best one, so
    # it finds the full scan's argmax; the batched refinement runs each
    # bracket as the one-point search does, so a mesh call, a one-point
    # call and the full scan agree bit for bit at every point
    problem = scan_problem(spline, delta_frac)
    xs, ds = np.array(xs), np.array(d_fracs) * problem.delta
    h_y = 10.0**log_h_y
    mesh = brute_force_u((xs[:, None], ds[None, :]), problem, h_y, window_factor)
    assert mesh.value.shape == mesh.argmax_y.shape == (len(xs), len(ds))
    for i, x in enumerate(xs.tolist()):
        for j, d in enumerate(ds.tolist()):
            want = full_scan_brute_force_u((x, d), problem, h_y, window_factor)
            one = brute_force_u((x, d), problem, h_y, window_factor)
            got = (mesh.value[i, j], mesh.argmax_y[i, j], mesh.bound)
            assert [v.hex() for v in got] == [v.hex() for v in one] == [v.hex() for v in want]


@given(
    st.lists(
        st.tuples(
            st.integers(1, 30_000),  # scan length
            st.floats(0.0, 3.0),  # amplitude
            st.floats(1e-4, 0.2),  # frequency per index
            st.floats(-1e-3, 1e-3),  # slope per index
            st.floats(0.0, 6.3),  # phase
        ),
        min_size=1,
        max_size=4,
    )
)
@example([(20_000, 1.0, 0.002, 0.0, 0.0), (5_000, 2.0, 0.01, 1e-4, 1.0), (40, 1.0, 0.1, 0.0, 0.0)])
@settings(max_examples=100, deadline=None)
def test_scan_tree_needs_no_concavity(scans):
    # many local maxima: the cell bounds alone, from the first-difference
    # and second-derivative constants, must keep every sample that can win
    count, amp, freq, slope, phase = (np.array(c) for c in zip(*scans))

    def sample(p, j):
        return amp[p] * np.sin(freq[p] * j + phase[p]) + slope[p] * j

    lip_step = float(np.max(amp * freq + np.abs(slope)))
    curv_step = float(np.max(amp * freq * freq))
    # rounding in sin grows with its argument, up to freq*count + phase
    scale = amp * (1.0 + freq * count + phase) + np.abs(slope) * count
    k, v_k = _scan_argmax(sample, count, lip_step, curv_step, scale)
    for p, n in enumerate(count.tolist()):
        full = sample(np.full(n, p), np.arange(n))
        want = int(np.argmax(full))
        assert (int(k[p]), v_k[p].hex()) == (want, full[want].hex())


def test_pruned_scan_evaluates_a_small_share(vee_problem, monkeypatch):
    calls = []
    value = BoundarySpline.value

    def counting(spline, y):
        if not isinstance(y, float):
            calls.append(np.size(y))
        return value(spline, y)

    monkeypatch.setattr(BoundarySpline, "value", counting)
    brute_force_u((0.3, 0.1), vee_problem, 1e-6, window_factor=2.0)
    full = 2 * math.ceil((2.0 * vee_problem.D * 0.1 + 1e-6) / 1e-6) + 1
    assert sum(calls) < 0.0025 * full


class TestEnvelopes:
    def test_constant_pinch(self, constant_problem):
        spec = envelope_spec(constant_problem)
        low, high = mw_envelopes((0.3, 0.05), constant_problem, spec)
        u = 1.0 - 2.0 * 0.05
        assert low <= u <= high
        assert high - low <= 2.0 * (0.0 + 2.0) * spec.h_y

    def test_worked_midpoint_bracket(self, vee_problem):
        spec = envelope_spec(vee_problem)
        low, high = mw_envelopes((0.0, 0.05), vee_problem, spec)
        assert low <= 0.15 <= high
        assert high - low <= 2.0 * (0.5 + 2.0) * spec.h_y

    def test_ordering(self, vee_problem):
        spec = envelope_spec(vee_problem)
        rng = np.random.default_rng(29)
        for _ in range(20):
            x = float(rng.uniform(-1.4, 1.4))
            d = float(rng.uniform(0.01, 0.09))
            low, high = mw_envelopes((x, d), vee_problem, spec)
            assert low <= high + 1e-12

    def test_bracket_tightens_with_sampling(self, vee_problem):
        gaps = []
        for h in (2e-3, 1e-4):
            spec = envelope_spec(vee_problem, h=h)
            low, high = mw_envelopes((0.3, 0.06), vee_problem, spec)
            gaps.append(high - low)
        assert gaps[1] <= gaps[0]
        assert gaps[1] <= 5.0 * (0.5 + 2.0) * 1e-4

    def test_margin_guard(self, vee_problem):
        small = GridSpec(xmin=-2.0, xmax=2.0, nx=2, nd=2, h_y=1e-4, margin=0.1)
        with pytest.raises(ConfigurationError):
            mw_envelopes((0.0, 0.05), vee_problem, small)

    def test_scan_size_checked_before_allocating(self, vee_problem):
        with pytest.raises(ConfigurationError, match=str(MAX_SCAN)):
            mw_envelopes((0.0, 0.05), vee_problem, envelope_spec(vee_problem, h=1e-8))

    def test_point_preconditions(self, vee_problem):
        spec = envelope_spec(vee_problem)
        with pytest.raises(DomainError):
            mw_envelopes((0.0, 0.1), vee_problem, spec)  # on the top line
        with pytest.raises(DomainError):
            mw_envelopes((1.9, 0.05), vee_problem, spec)  # inside the margin band

    def test_batch_matches_pointwise(self, two_kink_problem):
        spec = envelope_spec(two_kink_problem, h=1e-3)
        xs = np.array([-1.2, -0.3, 0.0, 0.45, 1.3])[:, None]
        ds = np.array([0.01, 0.05, 0.09])[None, :]
        low, high = mw_envelopes((xs, ds), two_kink_problem, spec)
        assert low.shape == high.shape == (5, 3)
        for i, x in enumerate(xs[:, 0].tolist()):
            for j, d in enumerate(ds[0].tolist()):
                assert (low[i, j], high[i, j]) == mw_envelopes((x, d), two_kink_problem, spec)

    def test_batch_error_names_the_point(self, vee_problem):
        spec = envelope_spec(vee_problem)
        with pytest.raises(DomainError, match=r"at grid point \(x=1.9, d=0.05\)"):
            mw_envelopes((np.array([0.0, 1.9]), 0.05), vee_problem, spec)


class TestGridEval:
    def test_constant_grid(self, constant_problem):
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=2, nd=2, h_y=1e-6)
        grid = grid_eval(constant_problem, spec, "closed_form")
        assert grid.provenance == "closed_form"
        for j, d in enumerate(grid.ds):
            assert np.allclose(grid.values[:, j], 1.0 - 2.0 * d, atol=1e-14)

    def test_closed_vs_brute(self, vee_problem):
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=5, nd=3, h_y=1e-4)
        closed = grid_eval(vee_problem, spec, "closed_form")
        brute = grid_eval(vee_problem, spec, "brute_force")
        bound = 0.5 * (0.5 + 2.0) * spec.h_y
        assert np.max(np.abs(closed.values - brute.values)) <= bound

    def test_envelope_grids_bracket_closed_form(self, vee_problem):
        spec = GridSpec(xmin=-2.0, xmax=2.0, nx=3, nd=2, h_y=1e-4,
                        margin=10.0 * vee_problem.D * vee_problem.delta)
        low = grid_eval(vee_problem, spec, "mw_min")
        high = grid_eval(vee_problem, spec, "mw_max")
        assert np.all(low.xs == high.xs)
        assert low.xs[0] == spec.xmin + spec.margin and low.xs[-1] == spec.xmax - spec.margin
        assert np.all(low.values <= high.values + 1e-12)
        for i, x in enumerate(low.xs):
            for j, d in enumerate(low.ds):
                u = construction.u_interior(float(x), float(d), vee_problem)
                assert low.values[i, j] <= u + 1e-12
                assert u <= high.values[i, j] + 1e-12

    def test_unknown_provenance(self, vee_problem):
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=2, nd=2, h_y=1e-6)
        with pytest.raises(ConfigurationError):
            grid_eval(vee_problem, spec, "magic")

    def test_error_carries_coordinates(self, vee_problem):
        # margin too small for envelopes -> the propagated error names the point
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=2, nd=2, h_y=1e-4, margin=0.0)
        with pytest.raises(ConfigurationError, match="at grid point"):
            grid_eval(vee_problem, spec, "mw_min")

    def test_foreign_error_keeps_its_type(self):
        # a non-package error is re-raised as it is, with the point as a note
        def evaluate(point):
            raise MemoryError("no room")

        with pytest.raises(MemoryError) as info:
            map_points(evaluate, np.array([0.5]), np.array([0.1]))
        if sys.version_info >= (3, 11):  # exception notes
            assert info.value.__notes__ == ["at grid point (x=0.5, d=0.1)"]

    def test_map_points_order_and_shape(self):
        out = map_points(lambda p: (p[0], p[1], p[0] * p[1]), np.arange(3.0)[:, None], np.array([1.0, 2.0]))
        assert out.shape == (3, 2, 3)
        assert np.array_equal(out[..., 2], np.arange(3.0)[:, None] * np.array([1.0, 2.0]))


class TestExports:
    def test_csv_shape_and_precision(self, constant_problem):
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=3, nd=3, h_y=1e-6)
        grid = grid_eval(constant_problem, spec, "closed_form")
        text = grid_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "x,d,u,provenance"
        assert len(lines) == 1 + 9
        x, d, u, prov = lines[1].split(",")
        assert prov == "closed_form"
        assert float(u) == grid.values[0, 0]

    def test_formats_carry_identical_numbers(self, vee_problem):
        import json

        spec = GridSpec(xmin=-0.5, xmax=0.5, nx=3, nd=2, h_y=1e-6)
        grid = grid_eval(vee_problem, spec, "closed_form")
        csv_rows = grid_to_csv(grid).strip().split("\n")[1:]
        doc = json.loads(grid_to_structured(grid))
        assert doc["provenance"] == "closed_form"
        assert len(doc["rows"]) == len(csv_rows)
        for row, line in zip(doc["rows"], csv_rows):
            x, d, u, _ = line.split(",")
            assert row["x"] == float(x)
            assert row["d"] == float(d)
            assert row["u"] == float(u)


@given(st.floats(-1.5, 1.5), st.floats(0.2, 1.0), st.floats(0.1, 0.6))
@settings(max_examples=30, deadline=None)
def test_raising_data_raises_value(x, d_frac, shift):
    base = BoundarySpline(f0=0.0, knots=((-1.0, 0.5), (0.0, 0.0), (1.0, 0.5)))
    lifted = BoundarySpline(f0=shift, knots=base.knots)
    p0 = admit(ProblemParams(L=2.0, delta=0.1, spline=base))
    p1 = admit(ProblemParams(L=2.0, delta=0.1, spline=lifted))
    d = d_frac * 0.1
    v0 = brute_force_u((x, d), p0, 1e-5).value
    v1 = brute_force_u((x, d), p1, 1e-5).value
    assert v1 - v0 == pytest.approx(shift, abs=1e-12)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), NON_FINITE),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), NON_FINITE),
)
@settings(max_examples=50, deadline=None)
def test_envelopes_finite_or_package_error(vee_problem, x, d):
    spec = envelope_spec(vee_problem, h=1e-3)
    try:
        low, high = mw_envelopes((x, d), vee_problem, spec)
    except StriplexError:
        # only a point off the margin-trimmed window or off the open strip
        assert not (spec.xmin + spec.margin <= x <= spec.xmax - spec.margin and 0.0 < d < vee_problem.delta)
    else:
        assert math.isfinite(low) and math.isfinite(high)
