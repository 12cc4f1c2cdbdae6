import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplex import construction
from striplex.boundary import BoundarySpline
from striplex.errors import ConfigurationError, DomainError, ValidationError
from striplex.oracle import (
    MAX_SCAN,
    GridSpec,
    brute_force_u,
    grid_eval,
    grid_to_csv,
    grid_to_structured,
    map_points,
    mw_envelopes,
)
from striplex.params import ProblemParams, admit

from test_construction import WORKED_INTERIOR_POINT, WORKED_INTERIOR_VALUE, WORKED_VALUE, WORKED_X


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
