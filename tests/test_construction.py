import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplex import construction, oracle
from striplex.analysis import second_derivatives_top
from striplex.construction import (
    contact_inverse,
    phi_prime,
    segment_value,
    solve_contacts,
    u_at_contact,
    u_interior,
)
from striplex.boundary import BoundarySpline, parse_spline
from striplex.errors import DomainError, NonConvergenceError, StriplexError, ValidationError
from striplex.params import ProblemParams, admit, delta_caps

from test_boundary import SPLINE_FILES, splines

ZIGZAG40 = parse_spline(next(path for path in SPLINE_FILES if path.stem == "zigzag40").read_text(encoding="utf-8"))

# frozen oracle values for the vee profile at L=2, delta=0.1: grid scan at
# h_y=1e-7 plus golden-section refinement, cross-checked bit-identical with
# the closed form
WORKED_X = 0.03
WORKED_Y = 0.030769254111985032
WORKED_VALUE = 0.050230769318303919
WORKED_INTERIOR_POINT = (0.02, 0.05)
WORKED_INTERIOR_VALUE = 0.15010126583100059


def contact_residual(x, height, Y, problem):
    """|Y - height*phi(f'(x + Y))|, the residual of a returned iterate."""
    L = problem.L
    slope = problem.spline.derivative(x + Y)
    return np.abs(Y - height * slope / np.sqrt(L * L - slope * slope))


class TestPhi:
    def test_zero(self):
        # phi'(0) = 1/L is the transfer constant at a flat-slope kink
        assert phi_prime(0.0, 2.0) == 0.5

    def test_kink_slope_curvature(self):
        # phi'(t) = L^2/(L^2 - t^2)^(3/2)
        assert phi_prime(1.0, 2.0) == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-16)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_prime(-2.5, 2.0)
        with pytest.raises(DomainError):
            phi_prime(np.array([0.0, 2.0]), 2.0)


# construction.hypot repeats the IEEE operations of CPython 3.11's
# math.hypot; these tests were checked bit for bit against math.hypot of
# CPython 3.11.7
TINY = 2.0**-1074
HUGE = np.finfo(float).max
HYPOT_EDGES = [
    # zeros, signed
    (0.0, 0.0), (-0.0, -0.0), (0.0, -3.0), (-2.5, 0.0),
    # non-finite: inf beats nan
    (math.inf, math.nan), (math.nan, -math.inf), (math.nan, math.nan), (math.nan, 0.0), (-math.inf, 1.0),
    (math.inf, math.inf),
    # larger argument subnormal: below 2**-1022 the kernel scales it by up to
    # 2**1023; below 2**-1024 math.hypot takes it
    (2.0**-1023, 2.0**-1030), (3.0 * 2.0**-1024, TINY), (2.0**-1024, 2.0**-1024), (2.0**-1022 - TINY, 1e-310),
    (2.0**-1025, TINY), (TINY, TINY), (TINY, 0.0), (-TINY, 3 * TINY), (2.0**-1022, TINY),
    # near the top of the range: scaled by 2**-1024, and overflowing
    (HUGE, HUGE), (HUGE, 1.0), (HUGE / 2, HUGE / 2), (2.0**1023, 2.0**1023), (-HUGE, 2.0**1000), (1e308, 1e308),
    # ratios past 2**-540: the smaller square is below the larger one's ulp
    (1.0, 2.0**-541), (1.0, 2.0**-600), (2.0**-540, -1.0), (3.0, 2.0**-1000), (1e300, 1e-300),
    # an exact result, and a near tie of the rounding
    (3.0, 4.0), (0.1, 0.2), (1.0, 1.0),
]


def assert_hypot_is_math_hypot(pairs):
    """construction.hypot over the pairs equals math.hypot in every bit,
    on an array below the map cut-off and on one above it."""
    size = len(pairs)
    assert size < construction._HYPOT_MAP
    long = pairs * (construction._HYPOT_MAP // size + 1)
    for rows in (pairs, long):
        a, b = np.array(rows, dtype=float).T
        want = np.array([math.hypot(x, y) for x, y in rows])
        got = construction.hypot(a, b)
        assert got.shape == a.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestHypot:
    def test_branch_edges(self):
        pairs = [(x, y) for x, y in HYPOT_EDGES] + [(y, x) for x, y in HYPOT_EDGES]
        assert_hypot_is_math_hypot(pairs)

    @given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_equals_math_hypot(self, pairs):
        # st.floats draws nan, +-inf, +-0 and subnormals
        assert_hypot_is_math_hypot(pairs)

    def test_chunks_and_broadcast(self):
        # more than two chunks of the kernel, and a scalar against an array
        rng = np.random.default_rng(7)
        a = rng.uniform(0.0, 0.1, 2 * construction._HYPOT_CHUNK + 3)
        b = rng.uniform(-1e-3, 1e-3, a.size)
        want = np.array([math.hypot(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert construction.hypot(a, b).view(np.int64).tolist() == want.view(np.int64).tolist()
        got = construction.hypot(0.1, b[:600].reshape(200, 3))
        want = [math.hypot(0.1, y) for y in b[:600].tolist()]
        assert got.shape == (200, 3)
        assert got.ravel().view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


class TestSolveContact:
    def test_constant_data(self, constant_problem):
        for x in (-3.0, 0.0, 11.5):
            sol = solve_contacts(x, 0.07, constant_problem)
            assert sol.Y == 0.0
            assert sol.value == pytest.approx(1.0 - 2.0 * 0.07, abs=1e-15)
            assert contact_residual(x, 0.07, sol.Y, constant_problem) == 0.0

    def test_linear_data(self, linear_problem):
        sol = solve_contacts(0.0, 0.1, linear_problem)
        assert sol.Y == pytest.approx(0.1 / math.sqrt(3.0), abs=1e-13)
        assert sol.value == pytest.approx(-0.1 * math.sqrt(3.0), abs=1e-13)
        sol = solve_contacts(4.5, 0.1, linear_problem)
        assert sol.value == pytest.approx(4.5 - 0.1 * math.sqrt(3.0), abs=1e-13)

    def test_worked_point_matches_frozen_oracle(self, vee_problem):
        sol = solve_contacts(WORKED_X, 0.1, vee_problem)
        assert sol.y == pytest.approx(WORKED_Y, abs=1e-12)
        assert sol.value == pytest.approx(WORKED_VALUE, abs=1e-12)

    def test_residual_and_localization(self, vee_problem):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = float(rng.uniform(-3, 3))
            h = float(rng.uniform(0.001, 0.1))
            sol = solve_contacts(x, h, vee_problem)
            assert contact_residual(x, h, sol.Y, vee_problem) <= 1e-12
            assert abs(sol.Y) <= vee_problem.D * h

    def test_height_domain(self, vee_problem):
        for bad in (0.0, -0.5, 0.1000001):
            with pytest.raises(DomainError):
                solve_contacts(0.0, bad, vee_problem)

    def test_iteration_budget_guard(self, vee_problem, monkeypatch):
        with pytest.raises(DomainError):
            solve_contacts(0.7, 0.1, vee_problem, tol=0.0)
        with pytest.raises(DomainError, match="tol must be finite and > 0, got nan"):
            solve_contacts(0.7, 0.1, vee_problem, tol=math.nan)
        # with no Newton step the secant start goes to the certificate, which
        # refuses it on vee's curved piece
        monkeypatch.setattr(construction, "_newton_cap", lambda problem, threshold: 0)
        with pytest.raises(NonConvergenceError, match="did not converge in 0 Newton steps"):
            solve_contacts(0.7, 0.1, vee_problem)


class TestContactInverse:
    def test_flat_slope_fixed_point(self, vee_problem):
        assert contact_inverse(0.0, 0.1, vee_problem) == 0.0

    def test_linear_offset(self, linear_problem):
        assert contact_inverse(1.0, 0.1, linear_problem) == pytest.approx(
            1.0 - 0.1 / math.sqrt(3.0), abs=1e-15
        )

    def test_round_trip(self, vee_problem):
        rng = np.random.default_rng(11)
        for y in rng.uniform(-1.5, 1.5, 100):
            x = contact_inverse(float(y), 0.1, vee_problem)
            sol = solve_contacts(x, 0.1, vee_problem)
            assert abs(sol.y - float(y)) <= 1e-10

    def test_monotone_bijection(self, vee_problem):
        xs = np.sort(np.random.default_rng(3).uniform(-2, 2, 200))
        ys = [solve_contacts(float(x), 0.1, vee_problem).y for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_vectorized_matches_scalar(self, vee_problem):
        ys = np.linspace(-2, 2, 17)
        hs = np.linspace(0.01, 0.1, 17)
        for height in (0.1, hs):
            vec = contact_inverse(ys, height, vee_problem)
            for y, h, x in zip(ys, np.broadcast_to(height, ys.shape), vec):
                assert x == contact_inverse(float(y), float(h), vee_problem)

    def test_height_domain(self, vee_problem):
        # the first bad height is named, for a scalar and an array height
        for height, bad in ((0.0, "0.0"), (np.array([0.05, 0.2, -1.0]), "0.2")):
            with pytest.raises(DomainError, match=rf"height must lie in \(0, delta\], got {bad} with delta=0.1"):
                contact_inverse(np.array([0.1, 0.2, 0.3]), height, vee_problem)


class TestUAtContact:
    def test_flat_slope_kink(self, vee_problem):
        # f(0) = 0.25 and f'(0) = 0, so the surd degenerates to L
        assert u_at_contact(0.0, vee_problem) == pytest.approx(0.25 - 0.2, abs=1e-15)

    def test_constant(self, constant_problem):
        for y in (-2.0, 0.3):
            assert u_at_contact(y, constant_problem) == pytest.approx(1.0 - 0.2, abs=1e-15)

    def test_linear_against_oracle(self, linear_problem):
        value = u_at_contact(1.0, linear_problem)
        assert value == pytest.approx(1.0 - 0.1 * 4.0 / math.sqrt(3.0), abs=1e-13)
        x = contact_inverse(1.0, 0.1, linear_problem)
        brute = oracle.brute_force_u((x, 0.1), linear_problem, 1e-6)
        assert value == pytest.approx(brute.value, abs=1e-10)

    def test_matches_solver_value(self, vee_problem):
        for y in np.linspace(-1.4, 1.4, 15):
            x = contact_inverse(float(y), 0.1, vee_problem)
            sol = solve_contacts(x, 0.1, vee_problem)
            assert u_at_contact(float(y), vee_problem) == pytest.approx(sol.value, abs=1e-12)


class TestUInterior:
    def test_domain(self, vee_problem):
        for bad in (0.0, -0.01, 0.11):
            message = rf"^at grid point \(x=0.0, d={bad!r}\): height must lie in \(0, delta\], got {bad!r}"
            with pytest.raises(DomainError, match=message + " with delta=0.1$"):
                u_interior(0.0, bad, vee_problem)

    def test_overflow_names_the_point(self):
        problem = admit(ProblemParams(L=2.0, delta=0.1, spline=BoundarySpline(f0=0.0, knots=((0.0, 1.9),))))
        message = r"^at grid point \(x=1e\+308, d=0.05\): u overflows the float range at x = 1e\+308$"
        with pytest.raises(DomainError, match=message):
            u_interior(np.array([0.0, 1e308]), 0.05, problem)

    def test_constant(self, constant_problem):
        assert u_interior(2.0, 0.03, constant_problem) == pytest.approx(1.0 - 0.06, abs=1e-15)

    def test_worked_interior_point(self, vee_problem):
        assert u_interior(*WORKED_INTERIOR_POINT, vee_problem) == pytest.approx(
            WORKED_INTERIOR_VALUE, abs=1e-12
        )

    def test_agrees_with_top_line_solve(self, vee_problem):
        for x in (-0.9, 0.0, 1.7):
            assert u_interior(x, 0.1, vee_problem) == solve_contacts(x, 0.1, vee_problem).value


class TestUPrimeTop:
    # the tangential slope of u along the top line at x(y) is f'(y)
    def test_trivial_profiles(self, constant_problem, linear_problem):
        assert constant_problem.spline.derivative(3.0) == 0.0
        assert linear_problem.spline.derivative(-2.0) == 1.0

    def test_vee(self, vee_problem):
        assert vee_problem.spline.derivative(0.5) == pytest.approx(0.25, abs=1e-15)


class TestSegmentValue:
    def test_endpoints(self, vee_problem):
        y = 0.7
        point, value = segment_value(y, 0.0, vee_problem)
        assert point == (y, 0.0)
        assert value == pytest.approx(vee_problem.spline.value(y), abs=1e-15)
        point, value = segment_value(y, 1.0, vee_problem)
        assert point[1] == 0.1
        assert point[0] == pytest.approx(contact_inverse(y, 0.1, vee_problem), abs=1e-15)
        assert value == pytest.approx(u_at_contact(y, vee_problem), abs=1e-13)

    def test_worked_midpoint(self, vee_problem):
        point, value = segment_value(0.0, 0.5, vee_problem)
        assert point == (0.0, 0.05)
        assert value == pytest.approx(0.15, abs=1e-15)
        assert u_interior(*point, vee_problem) == pytest.approx(0.15, abs=1e-13)
        brute = oracle.brute_force_u(point, vee_problem, 1e-6)
        assert brute.value == pytest.approx(0.15, abs=1e-12)

    def test_affine_along_segment(self, vee_problem):
        y = -0.85
        x_top = contact_inverse(y, 0.1, vee_problem)
        length = math.hypot(0.1, x_top - y)
        f_y = vee_problem.spline.value(y)
        for t in np.arange(0.1, 1.0, 0.1):
            point, value = segment_value(y, float(t), vee_problem)
            assert value == pytest.approx(f_y - 2.0 * t * length, abs=1e-15)
            assert u_interior(point[0], point[1], vee_problem) == pytest.approx(value, abs=1e-12)

    def test_parameter_domain(self, vee_problem):
        with pytest.raises(DomainError):
            segment_value(0.0, -0.1, vee_problem)
        with pytest.raises(DomainError):
            segment_value(0.0, 1.1, vee_problem)
        # the first bad parameter is named with its point
        message = r"^at grid point \(y=0.5, t=2.0\): segment parameter must lie in \[0, 1\]$"
        with pytest.raises(DomainError, match=message):
            segment_value(np.linspace(-1.0, 1.0, 5), np.array([0.1, 0.2, 0.5, 2.0, math.nan]), vee_problem)


def test_touching_from_above(vee_problem):
    # the translated cone through (x, u(x)) dominates f and touches it at y(x)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.8, 1.8, 20):
        sol = solve_contacts(float(x), 0.1, vee_problem)
        ys = np.linspace(float(x) - 3.0, float(x) + 3.0, 4001)
        g = sol.value + 2.0 * np.sqrt(0.01 + (float(x) - ys) ** 2)
        assert np.all(g - vee_problem.spline.value(ys) >= -1e-12)
        g_contact = sol.value + 2.0 * math.hypot(0.1, float(x) - sol.y)
        assert g_contact - vee_problem.spline.value(sol.y) == pytest.approx(0.0, abs=1e-10)


def test_empirical_lipschitz_of_offset(vee_problem):
    rng = np.random.default_rng(13)
    bound = vee_problem.lip_Y_bound
    for _ in range(500):
        x1 = float(rng.uniform(-2, 2))
        dx = float(rng.uniform(1e-4, 0.2)) * (1 if rng.random() < 0.5 else -1)
        Y1 = solve_contacts(x1, 0.1, vee_problem, tol=1e-14).Y
        Y2 = solve_contacts(x1 + dx, 0.1, vee_problem, tol=1e-14).Y
        assert abs(Y2 - Y1) <= bound * abs(dx)


@given(splines(), st.floats(-3, 3), st.floats(0.01, 1.0))
# Lip(f') = 1.1e-16 puts delta near 3.1e15 and the contact at y = 1.8e15,
# where the float spacing is 0.25
@example(BoundarySpline(f0=0.0, knots=((0.01, 1.9999999999999998), (2.01, 2.0))), 0.0, 1.0)
@settings(max_examples=150, deadline=None)
def test_solver_contract_on_random_problems(spline, x, height_frac):
    L = 1.5 * spline.max_slope + 1.0
    touch, banach = delta_caps(L, spline.max_slope, spline.slope_lipschitz)
    cap = min(touch, banach)
    delta = 0.4 * cap if math.isfinite(cap) else 0.5
    problem = admit(ProblemParams(L=L, delta=delta, spline=spline))
    h = height_frac * delta
    sol = solve_contacts(x, h, problem)
    assert contact_residual(x, h, sol.Y, problem) <= 1e-12
    assert abs(sol.Y) <= problem.D * h + 1e-15
    # round trip through the closed-form inverse; y - Y rounds to the float
    # grid at y, so one ulp of y is the floor of any bound
    x_back = contact_inverse(sol.y, h, problem)
    assert x_back == pytest.approx(x, abs=1e-10 + math.ulp(sol.y))


def reference_solve(x: float, height: float, problem, tol: float = 1e-12, max_iter: int = 200):
    """The scalar fixed-point loop from Y = 0 that the located Newton solve
    replaced: one point, Python floats, scalar spline lookups.  Returns (Y,
    y, value, iterations)."""
    spline, L, q = problem.spline, problem.L, problem.contraction_q
    threshold = tol * (1.0 - q) / q if q > 0.0 else math.inf
    Y = 0.0
    for iterations in range(1, max_iter + 1):
        slope = spline.derivative(x + Y)
        Y_next = height * slope / math.sqrt(L * L - slope * slope)
        converged = abs(Y_next - Y) <= threshold
        Y = Y_next
        if converged:
            break
    else:
        raise AssertionError("reference loop did not converge")
    y = x + Y
    return Y, y, spline.value(y) - L * math.hypot(height, Y), iterations


def contraction_residual(x, height, Y, problem):
    """|T(Y) - Y| for the map T(Y) = height*phi(f'(x + Y)), computed as the
    solve's certificate computes it."""
    slope, root = construction._slope_and_root(x + Y, problem)
    return np.abs(height * slope / root - Y)


def assert_solution_near_reference(got, ref, problem, tol: float = 1e-12):
    """Y and y within 2*tol of the fixed-point reference's (each within tol
    of the exact root), and u within (L_f + L)*2*tol, the slope of u in y."""
    Y, y, value = (np.asarray(getattr(got, name)) for name in ("Y", "y", "value"))
    assert np.all(np.abs(Y - ref[0]) <= 2.0 * tol)
    assert np.all(np.abs(y - ref[1]) <= 2.0 * tol + np.spacing(np.abs(ref[1])))
    assert np.all(np.abs(value - ref[2]) <= 2.0 * tol * (problem.L_f + problem.L) + 4.0 * np.spacing(np.abs(ref[2])))


@given(
    splines(),
    st.lists(st.tuples(st.floats(-3, 3), st.floats(0.01, 1.0)), min_size=1, max_size=20),
    st.floats(0.05, 0.95),
)
@settings(max_examples=100, deadline=None)
def test_batched_solve_matches_pointwise(spline, points, delta_frac):
    # each point leaves the Newton iteration on its own step, so every field
    # of a batch agrees bit for bit with the one-point solve, and within
    # 2*tol with the scalar fixed-point reference loop
    L = 1.5 * spline.max_slope + 1.0
    cap = min(delta_caps(L, spline.max_slope, spline.slope_lipschitz))
    delta = delta_frac * cap if math.isfinite(cap) else 0.5
    problem = admit(ProblemParams(L=L, delta=delta, spline=spline))
    xs = np.array([x for x, _ in points])
    hs = np.array([frac * delta for _, frac in points])
    batch = solve_contacts(xs, hs, problem)
    for k, (x, h) in enumerate(zip(xs.tolist(), hs.tolist())):
        alone = solve_contacts(x, h, problem)
        for name in ("Y", "y", "value"):
            assert float(getattr(batch, name)[k]).hex() == float(getattr(alone, name)).hex(), name
        assert_solution_near_reference(alone, reference_solve(x, h, problem), problem)


def knot_image_points(problem, heights):
    """Each knot's image X_j = t_j - d*phi(s_j) at each height, as the solve
    computes it, with its two float neighbours, and one point in each tail
    past the outer images: (x, d) as flat arrays."""
    t, s, root = construction._knot_roots(problem)
    d = np.asarray(heights, dtype=float)[:, None]
    images = t - d * (s / root)
    x = np.stack([np.nextafter(images, -np.inf), images, np.nextafter(images, np.inf)], axis=-1)
    x = np.concatenate([x.reshape(d.size, -1), images[:, :1] - 1.0, images[:, -1:] + 1.0], axis=1)
    return np.broadcast_arrays(x.ravel(), np.repeat(d.ravel(), x.shape[1]))


@given(splines(), st.sampled_from([1.5, 4.0, 40.0]), st.floats(0.05, 0.99), st.floats(0.05, 1.0))
# zigzag40 at L = 2 and delta-frac 0.99: q ~ 0.99
@example(ZIGZAG40, 2.0 / ZIGZAG40.max_slope, 0.99, 0.5)
@settings(max_examples=100, deadline=None)
def test_located_newton_solve_on_random_problems(spline, slope_factor, delta_frac, height_frac):
    # at knot images and their float neighbours, where the contact sits on
    # a knot and the located row is either of its pieces, and in both
    # tails, up to q ~ 0.99: the solve returns Y within 2*tol of the
    # fixed-point reference loop, the contraction rule holds at it, and a
    # batch is its one-point solves bit for bit.  Where tol*(1-q)/q lies
    # below a few ulps of the largest |Y|, the certificate may refuse a
    # point instead, but never returns a wrong one
    L = slope_factor * max(spline.max_slope, 0.1)
    cap = min(delta_caps(L, spline.max_slope, spline.slope_lipschitz))
    delta = delta_frac * cap if math.isfinite(cap) else 0.5
    problem = admit(ProblemParams(L=L, delta=delta, spline=spline))
    tol, q = 1e-12, problem.contraction_q
    threshold = tol * (1.0 - q) / q if q > 0.0 else math.inf
    y_max = delta * spline.max_slope / math.sqrt(L * L - spline.max_slope**2)
    x, d = knot_image_points(problem, [delta, height_frac * delta])
    try:
        batch = solve_contacts(x, d, problem, tol=tol)
    except NonConvergenceError:
        assert threshold < 16.0 * math.ulp(y_max)
        return
    assert np.all(contraction_residual(x, d, batch.Y, problem) <= threshold)
    ref = unblocked_solve(x, d, problem, tol=tol, max_iter=20_000)
    assert_solution_near_reference(batch, ref, problem, tol)
    for k in range(x.size):
        alone = solve_contacts(x[k], d[k], problem, tol=tol)
        for name in ("Y", "y", "value"):
            assert getattr(batch, name)[k].tobytes() == getattr(alone, name).tobytes(), name


def unblocked_solve(x, height, problem, tol: float = 1e-12, max_iter: int = 200):
    """The masked fixed-point loop from Y = 0 over every point at once, as
    the solve ran before it went through its points in blocks and located
    their pieces.  Returns (Y, y, value, iterations)."""
    x, height = (a.astype(float) for a in np.broadcast_arrays(x, height))
    spline, L, q = problem.spline, problem.L, problem.contraction_q
    threshold = tol * (1.0 - q) / q if q > 0.0 else math.inf
    shape = x.shape
    x, height = x.ravel(), height.ravel()
    Y = np.zeros(x.size)
    iterations = np.zeros(x.size, dtype=int)
    active, xa, ha, Ya = np.arange(x.size), x, height, np.zeros(x.size)
    for k in range(1, max_iter + 1):
        if not active.size:
            break
        slope = spline.derivative(xa + Ya)
        Y_next = ha * slope / np.sqrt(L * L - slope * slope)
        done = np.abs(Y_next - Ya) <= threshold
        finished = active[done]
        Y[finished], iterations[finished] = Y_next[done], k
        keep = ~done
        active, xa, ha, Ya = active[keep], xa[keep], ha[keep], Y_next[keep]
    assert not active.size, "reference loop did not converge"
    y = x + Y
    value = spline.value(y) - L * np.array([math.hypot(h, v) for h, v in zip(height.tolist(), Y.tolist())])
    return tuple(a.reshape(shape)[()] for a in (Y, y, value, iterations))


def sample_problem(name: str, delta_frac: float = 0.8):
    """The sample spline at L = 2 and the arithmetic of `--delta-frac`: a
    fraction of the smaller admissibility cap."""
    path = next(path for path in SPLINE_FILES if path.stem == name)
    spline = parse_spline(path.read_text(encoding="utf-8"))
    cap = min(delta_caps(2.0, spline.max_slope, spline.slope_lipschitz))
    return admit(ProblemParams(L=2.0, delta=delta_frac * cap, spline=spline))


@pytest.mark.parametrize("name", ["vee", "two_kinks", "zigzag40"])
def test_blocked_solve_equals_unblocked_loop(name, monkeypatch):
    # solve_contacts runs its points in blocks of _SOLVE_BLOCK; every field
    # must be the one a single block over all points gives, bit for bit,
    # and within 2*tol of the fixed-point loop over all points at once, for
    # a line at one height and for an (x, d) mesh, both over 3 blocks
    problem = sample_problem(name)
    size = 3 * construction._SOLVE_BLOCK + 17
    xs = np.linspace(-2.0, 2.0, size)
    mesh = (np.linspace(-2.0, 2.0, size // 32 + 1)[:, None], problem.delta * np.linspace(0.05, 1.0, 32)[None, :])
    for point in ((xs, problem.delta), mesh):
        got = solve_contacts(*point, problem)
        with monkeypatch.context() as patch:
            patch.setattr(construction, "_SOLVE_BLOCK", 4 * size)
            whole = solve_contacts(*point, problem)
        for field in ("Y", "y", "value"):
            assert getattr(got, field).shape == np.broadcast_shapes(*(np.shape(a) for a in point)), field
            assert getattr(got, field).tobytes() == getattr(whole, field).tobytes(), field
        assert_solution_near_reference(got, unblocked_solve(*point, problem), problem)


@pytest.mark.parametrize("name", ["vee", "two_kinks", "zigzag40"])
def test_derived_iteration_cap_never_binds(name, monkeypatch):
    # the Newton cap derived from q stops no point that a cap far above it
    # lets converge: every field is the one the solve gives with 100 times
    # the cap, bit for bit, up to q ~ 0.9 on zigzag40
    rng = np.random.default_rng(len(name))
    newton_cap = construction._newton_cap
    for delta_frac in (0.05, 0.3, 0.6, 0.9):
        problem = sample_problem(name, delta_frac)
        # a quarter of the points on the top line, the rest at heights in
        # (0, delta]
        xs = rng.uniform(-3.0, 3.0, 2000)
        heights = problem.delta * np.concatenate([np.ones(500), 1.0 - rng.uniform(0.0, 1.0, 1500)])
        for tol in (1e-10, 1e-12, 1e-14):
            got = solve_contacts(xs, heights, problem, tol=tol)
            with monkeypatch.context() as patch:
                patch.setattr(construction, "_newton_cap", lambda problem, threshold: 100 * newton_cap(problem, threshold))
                far = solve_contacts(xs, heights, problem, tol=tol)
            for field in ("Y", "y", "value"):
                assert getattr(got, field).tobytes() == getattr(far, field).tobytes(), (delta_frac, tol, field)


def test_underflowing_threshold_keeps_the_cap_finite():
    # at q > 0.5 a tol of 5e-324 underflows the stopping threshold to 0,
    # which the certificate at this point never meets
    problem = sample_problem("vee", 0.9)
    with pytest.raises(NonConvergenceError, match="did not converge in"):
        solve_contacts(-1.5, problem.delta, problem, tol=5e-324)


def test_nonconvergence_names_the_first_point_in_a_later_block(monkeypatch):
    # zigzag40's tails are flat, so x = -3 is solved exactly with no Newton
    # step; the first point that is not sits in the second block, a later
    # one in the third
    monkeypatch.setattr(construction, "_newton_cap", lambda problem, threshold: 0)
    problem = sample_problem("zigzag40")
    block = construction._SOLVE_BLOCK
    xs = np.full(3 * block, -3.0)
    xs[block + 7], xs[2 * block + 3] = 0.3125, 0.6125
    with pytest.raises(NonConvergenceError) as err:
        solve_contacts(xs, problem.delta, problem)
    assert str(err.value).startswith(
        f"contact solve at (x=0.3125, height={problem.delta!r}) did not converge in 0 Newton steps: |Y - Y_N| = "
    )


@pytest.mark.parametrize("name", ["vee", "two_kinks", "zigzag40"])
def test_newton_stays_in_its_piece_and_the_certificate_refuses_a_wrong_one(name, monkeypatch):
    # given the piece next to the one that holds a contact, Newton's clip
    # keeps every iterate in that piece, where the piece's f' is the
    # boundary's, so the root of its linear f' continued past the piece is
    # never taken; the certificate then refuses the point
    problem = sample_problem(name, 0.9)
    xs = np.linspace(-0.9, 0.9, 37)
    heights = np.full(xs.size, problem.delta)
    t, s, root = construction._knot_roots(problem)
    row = construction._locate(xs, heights, t, s / root)
    # a knot piece next to the located one (a tail's Y is not iterated)
    wrong = np.where(row + 1 < t.size, row + 1, row - 1)
    assert np.all(wrong >= 1)
    q = problem.contraction_q
    threshold = 1e-12 * (1.0 - q) / q
    Y_N = construction._newton(xs, heights, wrong, problem, threshold, construction._newton_cap(problem, threshold))
    assert np.all((t[wrong - 1] - xs <= Y_N) & (Y_N <= t[wrong] - xs))
    locate = construction._locate
    monkeypatch.setattr(construction, "_locate", lambda *args: np.maximum(locate(*args) - 1, 0))
    with pytest.raises(NonConvergenceError, match="did not converge in"):
        solve_contacts(xs, problem.delta, problem)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), NON_FINITE), st.floats(0.01, 1.0))
@settings(max_examples=100, deadline=None)
def test_entry_points_finite_or_package_error(vee_problem, x, height_frac):
    d = height_frac * vee_problem.delta

    def segment():
        (px, pd), value = segment_value(x, height_frac, vee_problem)
        return px, pd, value

    calls = {
        "solve_contacts": lambda: solve_contacts(np.array([0.0, x]), d, vee_problem).value,
        "u_interior": lambda: u_interior(x, d, vee_problem),
        "brute_force_u": lambda: oracle.brute_force_u((x, d), vee_problem, 1e-4).value,
        "brute_force_u, 2x window": lambda: oracle.brute_force_u((x, d), vee_problem, 1e-4, window_factor=2.0).value,
        "contact_inverse": lambda: contact_inverse(x, d, vee_problem),
        "contact_inverse at array heights": lambda: contact_inverse(
            np.array([0.1, x]), np.array([0.5 * d, d]), vee_problem
        ),
        "u_at_contact": lambda: u_at_contact(x, vee_problem),
        "segment_value": segment,
        "second_derivatives_top": lambda: second_derivatives_top(x, vee_problem),
    }
    for name, call in calls.items():
        if math.isfinite(x):
            assert np.all(np.isfinite(call())), name
        else:
            # the bad point is named, with the condition it fails
            message = rf"^at grid point \([xy]={x!r}[,)].*: need finite [xy], got {x!r}$"
            with pytest.raises(StriplexError, match=message):
                call()


def test_coordinates_that_do_not_broadcast_are_refused(vee_problem):
    # the shapes are checked before any point: the nan is not named
    x, d = np.array([0.0, 0.1, math.nan]), np.full(2, 0.05)
    calls = [
        (lambda: solve_contacts(x, d, vee_problem), "x", "d"),
        (lambda: contact_inverse(x, d, vee_problem), "y", "d"),
        (lambda: oracle.brute_force_u((x, d), vee_problem, 1e-4), "x", "d"),
        (lambda: oracle.mw_envelopes((x, d), vee_problem), "x", "d"),
        (lambda: segment_value(x, np.full(2, 0.5), vee_problem), "y", "t"),
    ]
    for call, first, second in calls:
        message = rf"^coordinates do not broadcast together: {first} of shape \(3,\), {second} of shape \(2,\)$"
        with pytest.raises(ValidationError, match=message):
            call()
