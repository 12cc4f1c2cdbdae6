import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplex import construction, oracle
from striplex.boundary import BoundarySpline, parse_spline
from striplex.errors import ConfigurationError, DomainError, NonConvergenceError, StriplexError, ValidationError
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
from striplex.verify import VerifyConfig

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
        for h_y in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match=f"^h_y must be finite and > 0, got {h_y!r}$"):
                GridSpec(xmin=0.0, xmax=1.0, nx=4, nd=4, h_y=h_y)

    def test_point_cap(self):
        # checked on nx*nd before any array exists
        GridSpec(xmin=0.0, xmax=1.0, nx=2, nd=oracle.MAX_POINTS // 2, h_y=1e-6)
        with pytest.raises(ConfigurationError, match="more than"):
            GridSpec(xmin=0.0, xmax=1.0, nx=2, nd=oracle.MAX_POINTS // 2 + 1, h_y=1e-6)

    def test_heights_reach_delta_exactly(self, vee_problem):
        spec = GridSpec(xmin=-2.0, xmax=2.0, nx=4, nd=3, h_y=1e-3)
        assert spec.heights(0.1)[-1] == 0.1
        assert grid_eval(vee_problem, spec, "closed_form").ds[-1] == 0.1
        # the envelope evaluator is undefined on the top line: its rows stay strictly inside
        assert np.all(grid_eval(vee_problem, spec, "mw_min").ds < 0.1)


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
        # the step is checked once per call, before any point
        for h_y in (-1e-6, 0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"^h_y must be finite and > 0, got {h_y!r}$"):
                brute_force_u((math.nan, 0.05), vee_problem, h_y)

    def test_scan_size_checked_before_allocating(self, vee_problem):
        # 2 * D * d / h_y samples: ~1e11 here
        with pytest.raises(ConfigurationError, match=str(MAX_SCAN)):
            brute_force_u((0.0, 0.1), vee_problem, 1e-12)

    @pytest.mark.parametrize("factor", [-1.0, 0.0, 0.5, math.nan, math.inf])
    def test_window_factor_must_be_finite_and_at_least_one(self, vee_problem, factor):
        # below 1 the window misses the maximum; negative or non-finite it
        # has no size
        with pytest.raises(DomainError, match=f"window_factor >= 1.0, got {factor!r}"):
            brute_force_u((0.3, 0.05), vee_problem, 1e-4, window_factor=factor)

    def test_overflow_raises_the_package_error(self):
        # the samples overflow at x = 1e308; no RuntimeWarning may escape
        problem = admit(ProblemParams(L=2.0, delta=0.1, spline=BoundarySpline(f0=0.0, knots=((0.0, 1.9),))))
        with pytest.raises(DomainError, match="u overflows the float range at x = 1e[+]308"):
            brute_force_u((1e308, 0.05), problem, 1e-4)

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


def test_refinement_matches_one_bracket_search(vee_problem):
    # brackets leave the working arrays at different steps: zero width,
    # already below the stopping width, h, 2h and 1e-3 wide, and one whose
    # objective is nan; each keeps the bits of the one-bracket search
    spline, L = vee_problem.spline, vee_problem.L
    x = np.array([0.3, -0.7, 0.03, 1.1, -1.6, math.nan])
    d = np.array([0.05, 0.1, 0.02, 0.07, 0.1, 0.05])
    width = np.array([0.0, 0.5e-13, 1e-6, 2e-6, 1e-3, 2e-6])
    lo = np.where(np.isnan(x), 0.2, x) - 0.5 * width
    hi = lo + width
    sizes = []

    def objective(y, x, d):
        sizes.append(y.size)
        return spline.value(y) - L * construction.hypot(d, x - y)

    y_star, v_star = oracle.golden_section_max(objective, lo, hi, (x, d))
    for i in range(x.size):
        want = scalar_golden_section_max(lambda y: spline.value(y) - L * math.hypot(d[i], x[i] - y), lo[i], hi[i])
        assert (y_star[i].hex(), v_star[i].hex()) == tuple(float(w).hex() for w in want), i
    # two first probes of every bracket, steps over those still running
    # (the first two never step), and the midpoints of all
    steps = sizes[2:-1]
    assert sizes[:2] == [6, 6] and sizes[-1] == 6
    assert steps[0] == 4 and steps == sorted(steps, reverse=True) and len(set(steps)) == 3 and min(steps) == 1


def test_refinement_without_brackets_takes_no_step():
    sizes = []

    def objective(y, x):
        sizes.append(y.size)
        return -((y - x) ** 2)

    y_star, v_star = oracle.golden_section_max(objective, np.zeros(0), np.zeros(0), (np.zeros(0),))
    assert y_star.shape == v_star.shape == (0,) and y_star.dtype == v_star.dtype == float
    # the two first probes and the midpoints, all empty
    assert sizes == [0, 0, 0]


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
    """A problem for spline with L = max(2, 1.5*L_f + 1): below 1, an
    admitted one at delta_frac times the smaller cap but at most 0.1, which
    keeps the scans short enough for the reference; from 1 on, a plain
    ProblemParams at delta_frac times the (finite) smaller cap."""
    L = max(2.0, 1.5 * spline.max_slope + 1.0)
    cap = min(delta_caps(L, spline.max_slope, spline.slope_lipschitz))
    if delta_frac >= 1.0:
        return ProblemParams(L=L, delta=delta_frac * cap, spline=spline)
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
# heights whose root cells span 4^3, 4^6 and 4^9 indices: one mesh, three tree depths
@example(SAMPLE_SPLINES["vee"], 0.5, [-0.4, 0.03], [0.0005, 0.01, 1.0], -6.0, 1.0)
# past the caps, unadmitted: the scan reads no constant that needs admission.
# vee at delta ~ 3.02 lies between delta_touch and delta_banach; two_kinks at
# ~ 4.12 and zigzag40 at ~ 4.80 lie past both, two_kinks past its fold too
@example(SAMPLE_SPLINES["vee"], 1.1, [0.3, -1.0], [0.5, 1.0], -3.0, 2.0)
@example(SAMPLE_SPLINES["two_kinks"], 1.5, [0.0, 0.7], [1.0], -3.0, 2.0)
@example(SAMPLE_SPLINES["zigzag40"], 1.2, [-0.3125, 0.5], [0.25, 1.0], -4.0, 2.0)
@settings(max_examples=200, deadline=None)
def test_pruned_scan_matches_full_scan(spline, delta_frac, xs, d_fracs, log_h_y, window_factor):
    # every sample the pruned scan drops is strictly below the best one, so
    # it finds the full scan's argmax, and the batched refinement runs each
    # bracket as the one-point search does: a mesh call and one-point calls
    # agree with the full scan of their window bit for bit at every point,
    # admitted or not
    problem = scan_problem(spline, delta_frac)
    xs, ds = np.array(xs), np.array(d_fracs) * problem.delta
    h_y = 10.0**log_h_y
    point = (xs[:, None], ds[None, :])
    mesh = brute_force_u(point, problem, h_y)
    wide = brute_force_u(point, problem, h_y, window_factor=window_factor)
    assert mesh.value.shape == mesh.argmax_y.shape == wide.value.shape == wide.argmax_y.shape == (len(xs), len(ds))

    def bits(value, argmax_y, bound):
        return [v.hex() for v in (value, argmax_y, bound)]

    for i, x in enumerate(xs.tolist()):
        for j, d in enumerate(ds.tolist()):
            for factor, grid in ((1.0, mesh), (window_factor, wide)):
                want = bits(*full_scan_brute_force_u((x, d), problem, h_y, factor))
                alone = brute_force_u((x, d), problem, h_y, window_factor=factor)
                assert bits(grid.value[i, j], grid.argmax_y[i, j], grid.bound) == want, factor
                assert bits(alone.value, alone.argmax_y, alone.bound) == want, factor
    # the premise of localization's reading of the 1x result off the 2x
    # one: where the 2x argmax lies strictly between the 1x samples at
    # offsets 1 - n and n - 1, the two calls give the same bits.  That
    # takes in every point whose 2x argmax lies at least 2*h_y inside D*d
    double = wide if window_factor == 2.0 else brute_force_u(point, problem, h_y, window_factor=2.0)
    (x, d), y = point, double.argmax_y
    n = np.ceil((problem.D * d + h_y) / h_y)
    settled = (h_y * (1.0 - n) + x < y) & (y < h_y * (n - 1.0) + x)
    assert np.all(settled | ~(np.abs(y - x) <= problem.D * d - 2.0 * h_y))
    for a, b in ((mesh.value, double.value), (mesh.argmax_y, double.argmax_y)):
        assert a[settled].tobytes() == b[settled].tobytes()


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
@example([(30_000, 3.0, 0.2, 0.0, 2.0), (1, 1.0, 0.1, 0.0, 0.0)])
@settings(max_examples=100, deadline=None)
def test_scan_tree_needs_no_concavity(scans):
    # many local maxima: the cell bounds alone, from the first-difference
    # and second-derivative constants, must keep every sample that can win
    count, amp, freq, slope, phase = (np.array(c) for c in zip(*scans))

    def sample(p, j):
        return amp[p] * np.sin(freq[p] * j + phase[p]) + slope[p] * j

    full = [sample(np.full(n, p), np.arange(n)) for p, n in enumerate(count.tolist())]
    lip_step = float(np.max(amp * freq + np.abs(slope)))
    curv_step = float(np.max(amp * freq * freq))
    # rounding in sin grows with its argument, up to freq*count + phase
    scale = amp * (1.0 + freq * count + phase) + np.abs(slope) * count
    k, v_k = _scan_argmax(sample, count, lip_step, curv_step, scale)
    for p, v in enumerate(full):
        want = int(np.argmax(v))
        assert (int(k[p]), v_k[p].hex()) == (want, v[want].hex())


def bump_and_parabola(p, j):
    """-(j - 2000)^2 with a narrow bump of height 1 at 200 on top, the
    maximum of two parabolas: its second differences are at least -200, and
    far from the bump it lies well below the other parabola's top."""
    return np.maximum(10.0 - 100.0 * (j - 200.3) ** 2, -((j - 2000.0) ** 2))


@pytest.mark.parametrize(
    "sample, curv_step, want",
    [
        # a concave sequence whose best sample sits in the root's first
        # subcell, next to the start
        (lambda p, j: -((j - 500.3) ** 2), 2.0, 500),
        # the bump's cell has both ends far below the best sample seen: only
        # max(v_a, v_b) + 200*s^2/8 keeps it (max(v_a, v_b) + 0 would not)
        (bump_and_parabola, 200.0, 200),
    ],
    ids=["concave_start", "bump_fresh"],
)
def test_second_order_bound_takes_the_lower_side_of_the_curvature(sample, curv_step, want):
    # the second-order cell bound max(v_a, v_b) + curv_step*s^2/8 holds when
    # the second differences are at least -curv_step
    count = np.array([4097])
    full = sample(np.zeros(4097, dtype=int), np.arange(4097))
    # rounding slack as in the scan's pruning
    scale = np.array([np.max(np.abs(full))])
    assert int(np.argmax(full)) == want and np.min(np.diff(full, 2)) >= -curv_step - 1e-12 * (1.0 + 2.0 * scale[0])
    lip_step = float(np.max(np.abs(np.diff(full))))
    k, v_k = _scan_argmax(sample, count, lip_step, curv_step, scale)
    assert (int(k[0]), v_k[0].hex()) == (want, full[want].hex())


def argmax_cases():
    """Sample sequences whose np.argmax a pruned scan can miss only by
    breaking its rule: exact ties met on different levels, a tie of -0.0
    and 0.0, nan samples, a point without samples, and scans on each side
    of a power of 4 whose last two samples tie."""
    j = np.arange(3000.0)
    plateau = np.minimum(1.0 - ((j - 1500.0) / 1000.0) ** 2, 0.75)  # 0.75 on 1000..2000
    # 0.0 on 520..1000, -0.0 before 700: at ratios 2 and 4 the scan meets
    # 0.0 at 768, at stride 256, before any -0.0 (at stride 128 or 64)
    zeros = np.minimum(1.0 - ((j - 760.0) / 240.0) ** 2, 0.0)
    zeros[(zeros == 0.0) & (j < 700.0)] = -0.0
    nans = np.full(3000, 0.5)
    nans[[2345, 1234]] = math.nan
    # the root cell reads the last sample first, the tied one before it later
    ends = [np.minimum(np.arange(n), n - 2.0) / 100.0 for n in (1, 2, 3, 16, 17, 18)]
    return [plateau, zeros, nans, np.full(50, math.nan), np.zeros(0), -((j - 2222.7) ** 2) / 1e6, *ends]


@pytest.mark.parametrize("refine", [2, 4, 8])
def test_scan_argmax_is_np_argmax_at_any_ratio_and_budget(refine, monkeypatch):
    # the result does not depend on the refinement ratio, nor on how levels
    # are split into blocks: with a budget of 8 samples a call runs its root
    # cells in chunks of 4 points and its levels in many blocks, and each
    # level's samples fold into np.argmax's (k, v_k)
    monkeypatch.setattr(oracle, "_REFINE", refine)
    monkeypatch.setattr(oracle, "_BUDGET", 8)
    full = argmax_cases()
    count = np.array([v.size for v in full])
    data, offset = np.concatenate(full), np.cumsum(count) - count
    sizes = []

    def sample(p, j):
        sizes.append(p.size)
        return data[offset[p] + j]

    with np.errstate(invalid="ignore"):
        lip_step = max(float(np.nanmax(np.abs(np.diff(v)), initial=0.0)) for v in full)
        curv_step = np.array([max(0.0, -float(np.nanmin(np.diff(v, 2), initial=0.0))) for v in full])
    scale = np.array([float(np.nanmax(np.abs(v), initial=0.0)) for v in full])
    k, v_k = _scan_argmax(sample, count, lip_step, curv_step, scale)
    for p, v in enumerate(full):
        if v.size:
            want = int(np.argmax(v))
            assert (int(k[p]), v_k[p].hex()) == (want, v[want].hex()), p
        else:
            assert v_k[p] == -math.inf
    assert len(sizes) > 100 and max(sizes) <= 8


@pytest.mark.parametrize("name", ["vee", "two_kinks", "zigzag40"])
def test_scan_bounds_hold_on_the_full_sample_sequences(name, monkeypatch):
    # the pruned scans are exact only while lip_step bounds every sample
    # sequence's first differences and, for its second-order bound, either
    # -curv_step bounds the second differences from below or the samples
    # rise to one maximum and fall; check that on every sample of every
    # scan, below delta_touch and past it
    problem = admit(ProblemParams(L=2.0, delta=0.1, spline=SAMPLE_SPLINES[name]))
    calls = []
    scan = oracle._scan_argmax

    def recording(sample, count, lip_step, curv_step, scale):
        calls.append((sample, count, lip_step, np.broadcast_to(curv_step, count.shape), scale))
        return scan(sample, count, lip_step, curv_step, scale)

    monkeypatch.setattr(oracle, "_scan_argmax", recording)
    xs = np.linspace(-1.2, 1.2, 9)[:, None]
    ds = problem.delta * np.array([0.2, 0.8])[None, :]
    for factor in (1.0, 2.0):
        brute_force_u((xs, ds), problem, 1e-4, window_factor=factor)
    if name != "two_kinks":
        # far from x the cone bends less than f' may; the samples still
        # fall there, as the cone is steeper than f
        for factor in (1.0, 16.0):
            brute_force_u((xs, ds), problem, 1e-3, window_factor=factor)
    # past the caps: the lower height lies below delta_touch, the upper one
    # past it, where only the bound from Lip(f') + L/d holds
    past = scan_problem(SAMPLE_SPLINES[name], 1.5)
    touch = past.caps[0]
    for factor in (1.0, 2.0):
        brute_force_u((xs, np.array([[0.5 * touch, 1.2 * touch]])), past, 1e-3, window_factor=factor)
    # each brute_force_u call scans once
    assert len(calls) == {"vee": 6, "two_kinks": 4, "zigzag40": 6}[name]
    for sample, count, lip_step, curv_step, scale in calls:
        for p, n in enumerate(count.tolist()):
            v = sample(np.full(n, p), np.arange(n))
            # rounding slack as in the scan's pruning
            slack = 1e-12 * (1.0 + np.max(np.abs(v)) + scale[p])
            assert np.max(np.abs(np.diff(v))) <= lip_step + slack
            top = int(np.argmax(v))
            rise_and_fall = np.all(np.diff(v[: top + 1]) >= -slack) and np.all(np.diff(v[top:]) <= slack)
            assert rise_and_fall or np.min(np.diff(v, 2)) >= -curv_step[p] - slack


def test_mesh_past_one_block_matches_one_point_calls(vee_problem, monkeypatch):
    # 260 points: at a budget of 512 samples the scan takes their root
    # cells in two chunks and splits their levels, so every point is checked
    monkeypatch.setattr(oracle, "_BUDGET", 512)
    xs, ds = np.broadcast_arrays(np.linspace(-1.0, 1.0, 20)[:, None], np.linspace(0.01, 0.1, 13)[None, :])
    mesh = brute_force_u((xs, ds), vee_problem, 1e-4)
    for i in range(xs.size):
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
    brute_force_u((0.3, 0.1), vee_problem, 1e-6, window_factor=2.0)
    full = 2 * math.ceil((2.0 * vee_problem.D * 0.1 + 1e-6) / 1e-6) + 1
    assert sum(calls) < 0.0025 * full
    # the 1x scan of the acceptance grid prunes exactly as much as when each
    # level's cells were made whole and bounded when they ran
    monkeypatch.setattr(BoundarySpline, "value", value)
    scan, taken = oracle._scan_argmax, []

    def counting_scan(sample, *args):
        # the samples each scan call reads
        taken.append(0)

        def counted(p, j):
            taken[-1] += p.size
            return sample(p, j)

        return scan(counted, *args)

    monkeypatch.setattr(oracle, "_scan_argmax", counting_scan)
    spec = VerifyConfig().grid
    brute_force_u((spec.xs()[:, None], spec.heights(vee_problem.delta)[None, :]), vee_problem, spec.h_y)
    assert taken == [201_529]


def test_acceptance_scans_read_a_pinned_number_of_samples(vee_problem, monkeypatch):
    # the work of the acceptance run's one oracle call, the 2x scan that
    # oracle_equivalence and localization share, on the acceptance grid
    # (vee, 257x17, h_y = 1e-6), counted in boundary samples, scan and
    # refinement: a regression in the scan's pruning fails here rather than
    # hiding in wall-time noise.  The pruning drops the 2x window's outer
    # annulus on its coarsest levels, so it reads barely more than the 1x
    # scan (367,551)
    problem, spec = vee_problem, VerifyConfig().grid
    calls = []
    value = BoundarySpline.value

    def counting(spline, y):
        calls.append(np.size(y))
        return value(spline, y)

    monkeypatch.setattr(BoundarySpline, "value", counting)
    point = (spec.xs()[:, None], spec.heights(problem.delta)[None, :])
    brute_force_u(point, problem, spec.h_y)
    assert sum(calls) == 367_551
    calls.clear()
    brute_force_u(point, problem, spec.h_y, window_factor=2.0)
    assert sum(calls) == 381_838


def pointwise_mw_envelopes(point, problem, spec):
    """The sampled envelopes as a per-point loop: each point's extrema over
    the boundary samples at y = spec.xmin + j*spec.h_y up to spec.xmax, the
    top line's at X(y) for contact points y.  Each sample's term bounds its
    envelope, so the bracket they give contains the exact one."""
    delta, L = problem.delta, problem.L
    ys = np.arange(spec.xmin, spec.xmax + 0.5 * spec.h_y, spec.h_y)
    g0, gt = problem.spline.value(ys), construction.u_at_contact(ys, problem)
    xt = construction.contact_inverse(ys, delta, problem)
    xs, ds = np.broadcast_arrays(*point)
    rows = []
    for x, d in zip(xs.ravel().tolist(), ds.ravel().tolist()):
        dist0 = np.hypot(x - ys, d)
        distt = np.hypot(x - xt, delta - d)
        low = max(float(np.max(g0 - L * dist0)), float(np.max(gt - L * distt)))
        high = min(float(np.min(g0 + L * dist0)), float(np.min(gt + L * distt)))
        rows.append((low, high))
    out = np.array(rows).reshape(xs.shape + (2,))
    return out[..., 0], out[..., 1]


def envelope_problem(spline, delta_frac):
    """An admitted problem for spline with L = max(2, 1.5*L_f + 1) and
    delta = delta_frac of the admissibility cap (of 1 where f' is constant)."""
    L = max(2.0, 1.5 * spline.max_slope + 1.0)
    cap = min(delta_caps(L, spline.max_slope, spline.slope_lipschitz))
    return admit(ProblemParams(L=L, delta=delta_frac * (cap if math.isfinite(cap) else 1.0), spline=spline))


def rounding(u, problem):
    """A few ulps of the terms the envelopes evaluate where u is u: each
    is u plus or minus L times a distance of at most (1 + D)*delta."""
    return 16.0 * np.finfo(float).eps * (1.0 + np.abs(u) + problem.L * (1.0 + problem.D) * problem.delta)


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
# Lip(f') ~ 6e-4: delta ~ 1650, where the terms are ~100x u
@example(BoundarySpline(f0=0.0, knots=((-0.5, 0.001), (1.15, 0.0))), 0.5, -2.0, [0.5], [0.01, 0.66])
@settings(max_examples=60, deadline=None)
def test_envelope_scans_match_pointwise_loop(spline, delta_frac, log_h, x_fracs, d_fracs):
    # the loop over the boundary samples of [-2, 2] brackets the exact
    # envelopes at points of [-1, 1], and those equal u, each within a few
    # ulps
    problem = envelope_problem(spline, delta_frac)
    spec = GridSpec(xmin=-2.0, xmax=2.0, nx=2, nd=2, h_y=10.0**log_h)
    xs = -1.0 + 2.0 * np.array(x_fracs)[:, None]
    ds = problem.delta * np.array(d_fracs)[None, :]
    low, high = mw_envelopes((xs, ds), problem)
    sampled_low, sampled_high = pointwise_mw_envelopes((xs, ds), problem, spec)
    try:
        u = construction.u_interior(xs, ds, problem)
    except NonConvergenceError:
        # near q = 1 the contraction rule's threshold may lie below the float
        # resolution of Y, and the solve's certificate refuses the point; as
        # low <= u <= high, the envelopes' pinch pins u there
        u = 0.5 * (low + high)
    assert low.shape == high.shape == sampled_low.shape == (len(x_fracs), len(d_fracs))
    ulps = rounding(u, problem)
    assert np.all(sampled_low <= low + ulps) and np.all(high <= sampled_high + ulps)
    assert np.all(np.abs(low - u) <= ulps) and np.all(np.abs(high - u) <= ulps)


def test_roots_past_a_knot_are_found():
    # near a knot, a point's contact roots may lie past it, up to |k|*phi(L_f)
    # away: every piece-table row within that reach is read
    problem = envelope_problem(BoundarySpline(f0=0.0, knots=((-1.0, 0.0), (0.0, 1.0))), 0.5)
    reach = 2.0 * problem.delta * problem.L_f / math.sqrt(problem.L**2 - problem.L_f**2)
    points = (reach * np.linspace(-1.0, 1.0, 21)[:, None], problem.delta * np.array([[0.1, 0.5, 0.9]]))
    low, high = mw_envelopes(points, problem)
    u = construction.u_interior(*points, problem)
    assert np.all(np.abs(low - u) <= rounding(u, problem)) and np.all(np.abs(high - u) <= rounding(u, problem))


def test_perturbed_top_line_opens_the_gap(two_kink_problem, monkeypatch):
    # the negative control: the envelopes pinch only where the top line
    # carries u; raised by eps, it lifts high by up to eps, never low
    points = (np.linspace(-1.2, 1.2, 7)[:, None], two_kink_problem.delta * np.array([[0.2, 0.5, 0.8]]))
    low, high = mw_envelopes(points, two_kink_problem)
    assert np.max(high - low) <= 1e-15
    eps = 1e-6
    u_at_contact = construction.u_at_contact
    monkeypatch.setattr(construction, "u_at_contact", lambda y, problem: u_at_contact(y, problem) + eps)
    raised_low, raised_high = mw_envelopes(points, two_kink_problem)
    assert np.array_equal(raised_low, low)
    assert np.max(raised_high - raised_low) > 0.5 * eps


class TestEnvelopes:
    def test_constant_pinch(self, constant_problem):
        low, high = mw_envelopes((0.3, 0.05), constant_problem)
        ulps = rounding(1.0 - 2.0 * 0.05, constant_problem)
        assert abs(low - 0.9) <= ulps and abs(high - 0.9) <= ulps

    def test_worked_midpoint_bracket(self, vee_problem):
        low, high = mw_envelopes((0.0, 0.05), vee_problem)
        ulps = rounding(0.15, vee_problem)
        assert abs(low - 0.15) <= ulps and abs(high - 0.15) <= ulps

    def test_ordering(self, vee_problem):
        rng = np.random.default_rng(29)
        for _ in range(20):
            x = float(rng.uniform(-1.4, 1.4))
            d = float(rng.uniform(0.01, 0.09))
            low, high = mw_envelopes((x, d), vee_problem)
            assert low <= high + 1e-12

    def test_bracket_tightens_with_sampling(self, vee_problem):
        # the sampled bracket closes in on the exact one as the samples
        # densify, at the rate (L_f + L)*h_y
        exact = mw_envelopes((0.3, 0.06), vee_problem)
        gaps = []
        for h in (2e-3, 1e-4):
            low, high = pointwise_mw_envelopes((0.3, 0.06), vee_problem, envelope_spec(vee_problem, h=h))
            ulps = rounding(exact[0], vee_problem)
            assert low <= exact[0] + ulps and exact[1] <= high + ulps
            gaps.append(high - low)
        assert gaps[1] <= gaps[0]
        assert gaps[1] <= 5.0 * (0.5 + 2.0) * 1e-4

    def test_scan_size_checked_before_allocating(self, vee_problem, monkeypatch):
        # the root searches' size, their (point, piece) pairs, is checked
        # against MAX_SCAN before any quartic is solved: on vee, x = 0 lies
        # on a knot, within reach of two pieces per term, and x = 0.5 of one
        def no_solve(companion):
            raise AssertionError("a quartic was solved")

        points = (np.array([0.0, 0.5]), 0.05)
        monkeypatch.setattr(np.linalg, "eigvals", no_solve)
        monkeypatch.setattr(oracle, "MAX_SCAN", 11)
        with pytest.raises(ConfigurationError, match=r"^envelope roots need 12 \(point, piece\) pairs, more than 11$"):
            mw_envelopes(points, vee_problem)
        monkeypatch.undo()
        monkeypatch.setattr(oracle, "MAX_SCAN", 12)
        assert np.all(np.isfinite(mw_envelopes(points, vee_problem)))

    def test_point_preconditions(self, vee_problem):
        with pytest.raises(DomainError):
            mw_envelopes((0.0, 0.1), vee_problem)  # on the top line
        with pytest.raises(DomainError):
            mw_envelopes((math.nan, 0.05), vee_problem)

    def test_batch_matches_pointwise(self, two_kink_problem, monkeypatch):
        meshes = (
            ([-1.2, -0.3, 0.0, 0.45, 1.3], [0.01, 0.05, 0.09]),
            # 258 points, in blocks of about 16 (point, piece) pairs
            (np.linspace(-1.4, 1.4, 129), [0.02, 0.08]),
        )
        monkeypatch.setattr(oracle, "_BUDGET", 64)
        for xs, ds in meshes:
            xs, ds = np.array(xs)[:, None], np.array(ds)[None, :]
            low, high = mw_envelopes((xs, ds), two_kink_problem)
            assert low.shape == high.shape == (xs.size, ds.size)
            for i, x in enumerate(xs[:, 0].tolist()):
                for j, d in enumerate(ds[0].tolist()):
                    assert (low[i, j], high[i, j]) == mw_envelopes((x, d), two_kink_problem)

    def test_batch_error_names_the_point(self, vee_problem):
        with pytest.raises(DomainError, match=r"at grid point \(x=1.9, d=0.1\)"):
            mw_envelopes((np.array([0.0, 1.9]), np.array([0.05, 0.1])), vee_problem)


def test_contact_roots_never_return_a_wrong_finite_root(vee_problem, monkeypatch):
    # at a height this far past delta, (c*k/L)^2 overflows on the curved
    # pieces in reach: the point is named before any eigenvalue is taken
    x, k = np.array([5.0, 0.5, 0.25]), np.array([0.1, 1e300, 1e300])
    with pytest.raises(DomainError, match=r"^at grid point \(x=0.5, k=1e\+300\): the contact-root quartic overflows$"):
        list(oracle._contact_roots(x, k, vee_problem))

    # eigenvalues that do not converge come back as the package's error
    def no_convergence(companion):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(NonConvergenceError):
        mw_envelopes((0.3, 0.05), vee_problem)


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
    try:
        low, high = mw_envelopes((x, d), vee_problem)
    except StriplexError:
        # only a point with a non-finite x or off the open strip
        assert not (math.isfinite(x) and 0.0 < d < vee_problem.delta)
    else:
        assert math.isfinite(low) and math.isfinite(high)
