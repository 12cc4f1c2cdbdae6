import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplex import construction, oracle
from striplex.boundary import BoundarySpline, parse_spline
from striplex.errors import ConfigurationError, DomainError, StriplexError, ValidationError
from striplex.ioutil import _FMT_BLOCK, REAL, fmt_real
from striplex.oracle import (
    MAX_SCAN,
    GridSpec,
    _scan_argmax,
    brute_force_u,
    grid_eval,
    mw_envelopes,
    write_grid,
)
from striplex.params import ProblemParams, admit, delta_caps

from test_boundary import splines
from test_construction import WORKED_INTERIOR_POINT, WORKED_INTERIOR_VALUE, WORKED_VALUE, WORKED_X

SPLINES = Path(__file__).resolve().parent.parent / "data" / "splines"
SAMPLE_SPLINES = {
    path.stem: parse_spline(path.read_text(encoding="utf-8")) for path in sorted(SPLINES.glob("*.spline"))
}


def fmt_rows(row: str, columns: list, sep: str) -> str:
    """The rows of the equal-length column arrays joined by sep, in one
    string: the in-memory formulation the streamed exports must equal byte
    for byte (one %-template application per block of _FMT_BLOCK rows)."""
    starts = range(0, len(columns[0]), _FMT_BLOCK)
    blocks = (np.column_stack([c[start : start + _FMT_BLOCK] for c in columns]) for start in starts)
    return sep.join(sep.join([row] * len(block)) % tuple(block.ravel().tolist()) for block in blocks)


def envelope_spec(problem, h=1e-4):
    return GridSpec(xmin=-2.0, xmax=2.0, nx=2, nd=2, h_y=h)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(xmin=1.0, xmax=0.0, nx=4, nd=4, h_y=1e-6)
        with pytest.raises(ValidationError):
            GridSpec(xmin=0.0, xmax=1.0, nx=1, nd=4, h_y=1e-6)
        with pytest.raises(ValidationError):
            GridSpec(xmin=0.0, xmax=1.0, nx=4, nd=4, h_y=0.0)

    def test_point_cap(self):
        # checked on nx*nd before any array exists
        GridSpec(xmin=0.0, xmax=1.0, nx=2, nd=oracle.MAX_POINTS // 2, h_y=1e-6)
        with pytest.raises(ConfigurationError, match="more than"):
            GridSpec(xmin=0.0, xmax=1.0, nx=2, nd=oracle.MAX_POINTS // 2 + 1, h_y=1e-6)

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
            wide = base.widened(2.0)
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

    @pytest.mark.parametrize("factor", [-1.0, 0.0, 0.5, math.nan, math.inf])
    def test_window_factor_must_be_finite_and_at_least_one(self, vee_problem, factor):
        # below 1 the window misses the maximum; negative or non-finite it
        # has no size
        with pytest.raises(DomainError, match=f"window_factor >= 1.0, got {factor!r}"):
            brute_force_u((0.3, 0.05), vee_problem, 1e-4).widened(factor)

    def test_overflow_raises_the_package_error(self):
        # the samples overflow at x = 1e308; no RuntimeWarning may escape
        problem = admit(ProblemParams(L=2.0, delta=0.1, spline=BoundarySpline(f0=0.0, knots=((0.0, 1.9),))))
        with pytest.raises(DomainError, match="u overflows the float range at x = 1e[+]308"):
            brute_force_u((1e308, 0.05), problem, 1e-4)

    def test_widened_never_narrows_and_keeps_its_own_factor(self, vee_problem):
        xs, ds = np.array([-0.3, 0.2]), np.array([0.05, 0.1])
        wide = brute_force_u((xs, ds), vee_problem, 1e-4).widened(1.5)
        with pytest.raises(DomainError, match="window_factor >= 1.5, got 1.0"):
            wide.widened(1.0)
        same = wide.widened(1.5)
        assert same.value.tobytes() == wide.value.tobytes() and same.argmax_y.tobytes() == wide.argmax_y.tobytes()

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
    window, np.argmax, then the one-point refinement.  Returns (value,
    argmax_y, bound)."""
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
    return float(v_star), float(y_star), 0.5 * (problem.L_f + L) * h_y


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
    # bracket as the one-point search does, and widened goes on from the 1x
    # result with the bits of a fresh scan, so a mesh call and one-point
    # calls, as returned and widened, agree with the full scan of their
    # window bit for bit at every point
    problem = scan_problem(spline, delta_frac)
    xs, ds = np.array(xs), np.array(d_fracs) * problem.delta
    h_y = 10.0**log_h_y
    mesh = brute_force_u((xs[:, None], ds[None, :]), problem, h_y)
    wide = mesh.widened(window_factor)
    assert mesh.value.shape == mesh.argmax_y.shape == wide.value.shape == wide.argmax_y.shape == (len(xs), len(ds))

    def bits(value, argmax_y, bound):
        return [v.hex() for v in (value, argmax_y, bound)]

    for i, x in enumerate(xs.tolist()):
        for j, d in enumerate(ds.tolist()):
            one = brute_force_u((x, d), problem, h_y)
            for factor, grid, alone in ((1.0, mesh, one), (window_factor, wide, one.widened(window_factor))):
                want = bits(*full_scan_brute_force_u((x, d), problem, h_y, factor))
                assert bits(grid.value[i, j], grid.argmax_y[i, j], grid.bound) == want, factor
                assert bits(alone.value, alone.argmax_y, alone.bound) == want, factor


@given(
    st.lists(
        st.tuples(
            st.integers(1, 30_000),  # scan length
            st.floats(0.0, 3.0),  # amplitude
            st.floats(1e-4, 0.2),  # frequency per index
            st.floats(-1e-3, 1e-3),  # slope per index
            st.floats(0.0, 6.3),  # phase
            st.floats(0.0, 1.0),  # start index, as a share of the scan
        ),
        min_size=1,
        max_size=4,
    )
)
@example([(20_000, 1.0, 0.002, 0.0, 0.0, 0.0), (5_000, 2.0, 0.01, 1e-4, 1.0, 0.0), (40, 1.0, 0.1, 0.0, 0.0, 0.0)])
# starts on and off the first level's stride, and at the last index
@example([(20_000, 1.0, 0.002, 0.0, 0.0, 0.4), (5_000, 2.0, 0.01, 1e-4, 1.0, 1.0), (30_000, 3.0, 0.2, 0.0, 2.0, 0.5)])
@settings(max_examples=100, deadline=None)
def test_scan_tree_needs_no_concavity(scans):
    # many local maxima: the cell bounds alone, from the first-difference
    # and second-derivative constants, must keep every sample that can win,
    # from any start index
    count, amp, freq, slope, phase, start_frac = (np.array(c) for c in zip(*scans))
    start = np.floor(start_frac * (count - 1)).astype(np.int64)

    def sample(p, j):
        return amp[p] * np.sin(freq[p] * j + phase[p]) + slope[p] * j

    lip_step = float(np.max(amp * freq + np.abs(slope)))
    curv_step = float(np.max(amp * freq * freq))
    # rounding in sin grows with its argument, up to freq*count + phase
    scale = amp * (1.0 + freq * count + phase) + np.abs(slope) * count
    k, v_k = _scan_argmax(sample, count, lip_step, curv_step, scale, start)
    for p, n in enumerate(count.tolist()):
        full = sample(np.full(n, p), np.arange(n))
        want = int(np.argmax(full))
        assert (int(k[p]), v_k[p].hex()) == (want, full[want].hex())


@pytest.mark.parametrize("name", ["vee", "two_kinks", "zigzag40"])
def test_scan_bounds_hold_on_the_full_sample_sequences(name, monkeypatch):
    # the pruned scans are exact only while the lip_step and curv_step that
    # the oracles hand to _scan_argmax bound every sample sequence's first
    # and second differences; check them on every sample of every scan
    problem = admit(ProblemParams(L=2.0, delta=0.1, spline=SAMPLE_SPLINES[name]))
    calls = []
    scan = oracle._scan_argmax

    def recording(sample, count, lip_step, curv_step, scale, start):
        calls.append((sample, count, lip_step, curv_step, scale))
        return scan(sample, count, lip_step, curv_step, scale, start)

    monkeypatch.setattr(oracle, "_scan_argmax", recording)
    ds = problem.delta * np.array([0.2, 0.8])[None, :]
    brute_force_u((np.linspace(-1.2, 1.2, 9)[:, None], ds), problem, 1e-4).widened(2.0)
    if name != "two_kinks":
        # far from x the cone bends less than f' may, so the second
        # differences come near the brute-force curv_step = Lip(f')*h_y^2:
        # on vee at h_y = 1e-3 their largest is -1.7e-5 at window factor 1,
        # +2.0e-7 at 8 and +4.6e-7 at 16, against 5e-7
        brute_force_u((np.linspace(-1.2, 1.2, 9)[:, None], ds), problem, 1e-3).widened(16.0)
    mw_envelopes((np.linspace(-1.3, 1.3, 7)[:, None], ds), problem, envelope_spec(problem, h=1e-3))
    # each brute_force_u call and each widening scans once, mw_envelopes four times
    assert len(calls) == (6 if name == "two_kinks" else 8)
    for sample, count, lip_step, curv_step, scale in calls:
        for p, n in enumerate(count.tolist()):
            v = sample(np.full(n, p), np.arange(n))
            # rounding slack as in the scan's pruning
            slack = 1e-12 * (1.0 + np.max(np.abs(v)) + scale[p])
            assert np.max(np.abs(np.diff(v))) <= lip_step + slack
            assert np.max(np.diff(v, 2)) <= curv_step + slack


def test_mesh_past_one_block_matches_one_point_calls(vee_problem):
    # 260 points: the scan runs them in two blocks, split after flat point 255
    xs, ds = np.broadcast_arrays(np.linspace(-1.0, 1.0, 20)[:, None], np.linspace(0.01, 0.1, 13)[None, :])
    mesh = brute_force_u((xs, ds), vee_problem, 1e-4)
    for i in (0, 1, 128, 254, 255, 256, 257, 258, 259):
        one = brute_force_u((xs.flat[i], ds.flat[i]), vee_problem, 1e-4)
        assert (mesh.value.flat[i].hex(), mesh.argmax_y.flat[i].hex()) == (one.value.hex(), one.argmax_y.hex())


def test_pruned_scan_evaluates_a_small_share(vee_problem, monkeypatch):
    calls = []
    value = BoundarySpline.value

    def counting(spline, y):
        if not isinstance(y, float):
            calls.append(np.size(y))
        return value(spline, y)

    monkeypatch.setattr(BoundarySpline, "value", counting)
    brute_force_u((0.3, 0.1), vee_problem, 1e-6).widened(2.0)
    full = 2 * math.ceil((2.0 * vee_problem.D * 0.1 + 1e-6) / 1e-6) + 1
    assert sum(calls) < 0.0025 * full


def test_widened_goes_on_from_the_narrower_scan(vee_problem, monkeypatch):
    # both parts of the continuation, which the localization check's time
    # rests on: each wider scan starts at the narrower best sample, and a
    # bracket that comes out bit-equal is not refined again (on this grid,
    # none is)
    scans, refined = [], []
    scan, refine = oracle._scan_argmax, oracle.golden_section_max

    def recording_scan(sample, count, lip_step, curv_step, scale, start):
        k, v_k = scan(sample, count, lip_step, curv_step, scale, start)
        scans.append((count, start, k))
        return k, v_k

    def recording_refine(fn, lo, hi):
        refined.append(np.size(lo))
        return refine(fn, lo, hi)

    monkeypatch.setattr(oracle, "_scan_argmax", recording_scan)
    monkeypatch.setattr(oracle, "golden_section_max", recording_refine)
    points = (np.linspace(-2.0, 2.0, 33)[:, None], vee_problem.delta * np.arange(1, 6)[None, :] / 5)
    brute_force_u(points, vee_problem, 1e-5).widened(2.0)
    (count1, start1, k1), (count2, start2, _) = scans
    assert np.all(start1 == 0)
    assert np.array_equal(start2, k1 - count1 // 2 + count2 // 2)
    assert refined == [count1.size, 0]


def pointwise_mw_envelopes(point, problem, spec):
    """The per-point loop the pruned envelope scans replaced: the same
    boundary samples, then each point's distances to every one of them (a
    line without samples adds nothing)."""
    delta, L, h = problem.delta, problem.L, spec.h_y
    ystep = h / (1.0 + problem.contraction_q)
    pad = problem.D * delta + h
    ys0 = np.arange(spec.xmin, spec.xmax + 0.5 * h, h)
    g0 = problem.spline.value(ys0)
    yt = np.arange(spec.xmin - pad, spec.xmax + pad + 0.5 * ystep, ystep)
    xt = construction.contact_inverse(yt, delta, problem)
    keep = (xt >= spec.xmin) & (xt <= spec.xmax)
    xt = xt[keep]
    gt = construction.u_at_contact(yt[keep], problem)
    xs, ds = np.broadcast_arrays(*point)
    rows = []
    for x, d in zip(xs.ravel().tolist(), ds.ravel().tolist()):
        dist0 = np.hypot(x - ys0, d)
        distt = np.hypot(x - xt, delta - d)
        low = max(float(np.max(g0 - L * dist0)), float(np.max(gt - L * distt, initial=-math.inf)))
        high = min(float(np.min(g0 + L * dist0)), float(np.min(gt + L * distt, initial=math.inf)))
        rows.append((low, high))
    out = np.array(rows).reshape(xs.shape + (2,))
    return out[..., 0], out[..., 1]


def envelope_problem(spline, delta_frac):
    """An admitted problem for spline with L = max(2, 1.5*L_f + 1) and
    delta = delta_frac of the admissibility cap (of 1 where f' is constant)."""
    L = max(2.0, 1.5 * spline.max_slope + 1.0)
    cap = min(delta_caps(L, spline.max_slope, spline.slope_lipschitz))
    return admit(ProblemParams(L=L, delta=delta_frac * (cap if math.isfinite(cap) else 1.0), spline=spline))


@given(
    st.one_of(st.sampled_from(list(SAMPLE_SPLINES.values())), splines()),
    st.floats(0.05, 0.99999),
    st.floats(-4.0, -2.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2),
)
# q ~ 0.9 and q ~ 1: the top-line samples are spaced unevenly in x, the
# more so the nearer q is to 1
@example(SAMPLE_SPLINES["zigzag40"], 0.9, -4.0, [0.0, 0.37, 1.0], [0.01, 0.99])
@example(SAMPLE_SPLINES["zigzag40"], 0.99999, -4.0, [0.0, 0.37, 1.0], [0.01, 0.99])
@settings(max_examples=60, deadline=None)
def test_envelope_scans_match_pointwise_loop(spline, delta_frac, log_h, x_fracs, d_fracs):
    # the pruned scans drop only samples strictly below the extremum, so
    # low and high carry the bits of the loop over every boundary sample
    problem = envelope_problem(spline, delta_frac)
    margin = 10.0 * problem.D * problem.delta
    spec = GridSpec(xmin=-1.0 - margin, xmax=1.0 + margin, nx=2, nd=2, h_y=10.0**log_h)
    lo, hi = spec.trimmed_window(problem)
    xs = np.minimum(lo + (hi - lo) * np.array(x_fracs)[:, None], hi)
    ds = problem.delta * np.array(d_fracs)[None, :]
    got = mw_envelopes((xs, ds), problem, spec)
    want = pointwise_mw_envelopes((xs, ds), problem, spec)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert [v.hex() for v in g.ravel().tolist()] == [v.hex() for v in w.ravel().tolist()]


@given(st.floats(-1e3, 1e3), st.floats(1e-7, 1.0), st.floats(-2.0, 2000.0))
# spacings (start + step) - start that round down and up from step
@example(-2.0, 1e-6, 1000.5)
@example(-1.0, 1e-6, 1000.5)
@example(0.1, 0.3, 3.0)
@example(-0.0, 1.0, 1.0)  # element 0 is start itself, sign included
@settings(max_examples=200, deadline=None)
def test_positions_match_np_arange(start, step, steps):
    # mw_envelopes samples the positions of np.arange without the array
    stop = start + steps * step
    size, spacing, at = oracle._arange(start, stop, step)
    want = np.arange(start, stop, step)
    assert size == want.size
    assert [v.hex() for v in at(np.arange(size)).tolist()] == [v.hex() for v in want.tolist()]
    if size > 1:
        assert spacing == want[1] - want[0]


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

    def test_scan_size_checked_before_allocating(self, vee_problem):
        with pytest.raises(ConfigurationError, match=str(MAX_SCAN)):
            mw_envelopes((0.0, 0.05), vee_problem, envelope_spec(vee_problem, h=1e-8))

    def test_no_top_line_sample_leaves_the_bottom_line_bracket(self, vee_problem):
        # a step past the window leaves the top line without a sample; the
        # bottom line alone still brackets u
        spec = GridSpec(xmin=-2.0, xmax=2.0, nx=2, nd=2, h_y=5.0)
        low, high = mw_envelopes((0.0, 0.05), vee_problem, spec)
        assert (low, high) == pointwise_mw_envelopes((0.0, 0.05), vee_problem, spec)
        assert low <= construction.u_interior(0.0, 0.05, vee_problem) <= high

    def test_point_preconditions(self, vee_problem):
        spec = envelope_spec(vee_problem)
        with pytest.raises(DomainError):
            mw_envelopes((0.0, 0.1), vee_problem, spec)  # on the top line
        with pytest.raises(DomainError):
            mw_envelopes((1.9, 0.05), vee_problem, spec)  # inside the margin band

    def test_batch_matches_pointwise(self, two_kink_problem):
        meshes = (
            ([-1.2, -0.3, 0.0, 0.45, 1.3], [0.01, 0.05, 0.09], 1e-3),
            # 258 points: past one block of the scan
            (np.linspace(-1.4, 1.4, 129), [0.02, 0.08], 1e-2),
        )
        for xs, ds, h in meshes:
            spec = envelope_spec(two_kink_problem, h=h)
            xs, ds = np.array(xs)[:, None], np.array(ds)[None, :]
            low, high = mw_envelopes((xs, ds), two_kink_problem, spec)
            assert low.shape == high.shape == (xs.size, ds.size)
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
        spec = GridSpec(xmin=-2.0, xmax=2.0, nx=3, nd=2, h_y=1e-4)
        low = grid_eval(vee_problem, spec, "mw_min")
        high = grid_eval(vee_problem, spec, "mw_max")
        assert np.all(low.xs == high.xs)
        margin = 10.0 * vee_problem.D * vee_problem.delta
        assert low.xs[0] == spec.xmin + margin and low.xs[-1] == spec.xmax - margin
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
        # a brute-force scan over MAX_SCAN -> the propagated error names the point
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=2, nd=2, h_y=1e-12)
        with pytest.raises(ConfigurationError, match="at grid point"):
            grid_eval(vee_problem, spec, "brute_force")


def joined_document(path, grid, fmt: str) -> str:
    """The grid's export document in one string: the file write_grid wrote
    to path, as the grid command writes it."""
    write_grid(path, grid, fmt)
    return path.read_bytes().decode("utf-8")


class TestExports:
    def test_csv_shape_and_precision(self, tmp_path, constant_problem):
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=3, nd=3, h_y=1e-6)
        grid = grid_eval(constant_problem, spec, "closed_form")
        text = joined_document(tmp_path / "grid", grid, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "x,d,u,provenance"
        assert len(lines) == 1 + 9
        x, d, u, prov = lines[1].split(",")
        assert prov == "closed_form"
        assert float(u) == grid.values[0, 0]

    def test_formats_carry_identical_numbers(self, tmp_path, vee_problem):
        import json

        spec = GridSpec(xmin=-0.5, xmax=0.5, nx=3, nd=2, h_y=1e-6)
        grid = grid_eval(vee_problem, spec, "closed_form")
        csv_rows = joined_document(tmp_path / "grid", grid, "csv").strip().split("\n")[1:]
        doc = json.loads(joined_document(tmp_path / "grid", grid, "structured"))
        assert doc["provenance"] == "closed_form"
        assert len(doc["rows"]) == len(csv_rows)
        for row, line in zip(doc["rows"], csv_rows):
            x, d, u, _ = line.split(",")
            assert row["x"] == float(x)
            assert row["d"] == float(d)
            assert row["u"] == float(u)

    @pytest.mark.parametrize(
        "nx, nd, provenance",
        [(2049, 2, "closed_form"), (129, 33, "100% mw_min"), (5, 3, "%s%%d")],
    )
    def test_exports_equal_every_field_through_real(self, tmp_path, nx, nd, provenance):
        # the exports format each x and d once; byte for byte they are the
        # fmt_rows formulation that formatted all three fields per row.
        # 2049x2 and 129x33 cross the 4096-row block edge, the second inside
        # an x; a -0.0 coordinate and a % in the provenance are carried
        rng = np.random.default_rng(nx * nd)
        xs = np.linspace(-1.0, 1.0, nx) + rng.uniform(0.0, 1e-3)
        xs[nx // 2] = -0.0
        ds = rng.uniform(0.01, 0.1, nd)
        values = rng.normal(size=(nx, nd))
        values[0, 0] = -0.0
        spec = GridSpec(xmin=-1.0, xmax=1.0, nx=nx, nd=nd, h_y=1e-6)
        grid = oracle.FieldGrid(spec=spec, provenance=provenance, xs=xs, ds=ds, values=values)
        columns = [a.ravel() for a in np.broadcast_arrays(xs[:, None], ds[None, :])] + [values.ravel()]
        row = f"{REAL},{REAL},{REAL},{provenance.replace('%', '%%')}"
        assert joined_document(tmp_path / "grid", grid, "csv") == "x,d,u,provenance\n" + fmt_rows(row, columns, "\n") + "\n"
        rows = fmt_rows('{"x":%s,"d":%s,"u":%s}' % ((REAL,) * 3), columns, ",")
        assert joined_document(tmp_path / "grid", grid, "structured") == (
            '{"kind":"field_grid","provenance":"%s","xmin":%s,"xmax":%s,"nx":%d,"nd":%d,"rows":[%s]}\n'
            % (provenance, fmt_real(-1.0), fmt_real(1.0), nx, nd, rows)
        )
        assert f"\n-0,{fmt_real(ds[0])}," in joined_document(tmp_path / "grid", grid, "csv")


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
    lo, hi = spec.trimmed_window(vee_problem)
    try:
        low, high = mw_envelopes((x, d), vee_problem, spec)
    except StriplexError:
        # only a point off the margin-trimmed window or off the open strip
        assert not (lo <= x <= hi and 0.0 < d < vee_problem.delta)
    else:
        assert math.isfinite(low) and math.isfinite(high)
