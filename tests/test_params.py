import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplex import oracle
from striplex.boundary import BoundarySpline
from striplex.errors import AdmissibilityError, InvalidParametersError
from striplex.params import AdmissibleProblem, ProblemParams, admit, delta_caps, window_radius

from test_boundary import splines


class TestWindowRadius:
    def test_printed_formula(self):
        assert window_radius(2.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_vanishing_data_slope(self):
        assert window_radius(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("L,L_f", [(1.0, 1.0), (0.4, 0.5), (1.0, -0.1)])
    def test_invalid(self, L, L_f):
        with pytest.raises(InvalidParametersError):
            window_radius(L, L_f)

    def test_brute_force_argmax_within_window(self, linear_problem):
        # slope-1 data: the true offset is delta/sqrt(L^2-1) = delta/sqrt(3)
        delta = linear_problem.delta
        expected = delta / math.sqrt(3.0)
        cap = window_radius(linear_problem.L, 1.0) * delta
        for x in (-1.3, 0.0, 0.7, 2.1):
            res = oracle.brute_force_u((x, delta), linear_problem, 1e-6)
            off = abs(res.argmax_y - x)
            assert off == pytest.approx(expected, abs=5e-6)
            assert off <= cap


class TestDeltaCaps:
    def test_printed_values(self):
        touch, banach = delta_caps(2.0, 1.0, 1.0)
        assert touch == pytest.approx(54.0 / 125.0, abs=1e-14)
        assert banach == pytest.approx(3.0**1.5 / 4.0, abs=1e-14)

    def test_constant_slope_infinite(self):
        assert delta_caps(1.0, 0.0, 0.0) == (math.inf, math.inf)

    def test_defining_identities(self):
        # re-evaluate both defining identities independently
        L, L_f, lip = 2.0, 0.5, 0.5
        touch, banach = delta_caps(L, L_f, lip)
        D = window_radius(L, L_f)
        assert abs(touch * lip * (1.0 + D * D) ** 1.5 - L) <= 1e-12
        assert abs(banach * L * L * lip - (L * L - L_f * L_f) ** 1.5) <= 1e-12

    def test_invalid(self):
        with pytest.raises(InvalidParametersError):
            delta_caps(1.0, 2.0, 1.0)
        with pytest.raises(InvalidParametersError):
            delta_caps(2.0, 1.0, -1.0)


class TestAdmit:
    def test_standard_contraction_factor(self, vee_problem):
        # independent evaluation of delta * L^2 * Lip(f') / (L^2 - L_f^2)^(3/2)
        expected = 0.1 * 4.0 * 0.5 / (3.75 * math.sqrt(3.75))
        assert vee_problem.contraction_q == pytest.approx(expected, rel=1e-14)
        assert vee_problem.lip_Y_bound == pytest.approx(expected / (1 - expected), rel=1e-14)
        assert vee_problem.D == pytest.approx(2.0 * 2.0 * 0.5 / 3.75, rel=1e-15)

    def test_rejects_at_touch_cap(self):
        spline = BoundarySpline(f0=0.0, knots=((-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)))
        touch, _ = delta_caps(2.0, 1.0, 1.0)
        with pytest.raises(AdmissibilityError) as err:
            admit(ProblemParams(L=2.0, delta=touch, spline=spline))
        assert err.value.violated_cap == "delta_touch"
        # strictly below still admits
        assert isinstance(admit(ProblemParams(L=2.0, delta=0.999 * touch, spline=spline)), AdmissibleProblem)

    def test_invalid_slope_gap(self):
        spline = BoundarySpline(f0=0.0, knots=((0.0, 1.5),))
        with pytest.raises(InvalidParametersError):
            ProblemParams(L=1.0, delta=0.1, spline=spline)

    def test_delta_must_be_positive(self, vee_spline):
        with pytest.raises(InvalidParametersError):
            ProblemParams(L=2.0, delta=0.0, spline=vee_spline)

    def test_variant_bound_uses_squared_slope_lipschitz(self, vee_problem):
        c = 0.1 * vee_problem.phi_prime_max * 0.25
        assert vee_problem.lip_Y_bound_variant == pytest.approx(c / (1 - c), rel=1e-14)

    @given(splines(), st.floats(-308.0, 308.0), st.one_of(st.floats(0.0, 1.0), st.none()), st.floats(0.05, 0.95))
    # the powers of L overflow from L ~ 5.6e102 (L**3) and ~ 1.35e154 (L*L)
    @example(BoundarySpline(f0=0.0, knots=((0.0, -0.5), (1.0, 0.5))), 103.0, 0.25, 0.5)
    @example(BoundarySpline(f0=0.0, knots=((0.0, -0.5), (1.0, 0.5))), 300.0, 0.25, 0.5)
    # L*L underflows to 0 (window_radius divides by it), and
    # (L*L - L_f*L_f)**1.5 underflows to 0 (phi_prime_max divides by it)
    @example(BoundarySpline(f0=0.0, knots=((0.0, 0.0),)), -200.0, 0.0, 0.5)
    @example(BoundarySpline(f0=0.0, knots=((0.0, -0.5), (1.0, 0.5))), -150.0, 0.5, 0.5)
    # L_f just below the smallest L admitted
    @example(BoundarySpline(f0=0.0, knots=((0.0, -0.5), (1.0, 0.5))), -90.0, None, 0.5)
    @settings(max_examples=150)
    def test_any_slope_gives_finite_constants_or_is_invalid(self, spline, log_L, share, frac):
        L = 10.0**log_L
        # the data slopes scaled under L, so that small L is admitted too:
        # L_f = share*L, or the float just below L for share None
        if spline.max_slope > 0.0:
            top = math.nextafter(L, 0.0) if share is None else share * L
            knots = tuple((t, top * (s / spline.max_slope)) for t, s in spline.knots)
            spline = BoundarySpline(f0=spline.f0, knots=knots)
        try:
            cap = min(delta_caps(L, spline.max_slope, spline.slope_lipschitz))
            problem = admit(ProblemParams(L=L, delta=frac * cap if math.isfinite(cap) else frac, spline=spline))
        except InvalidParametersError:
            return
        # a cap past the float range is +inf, as for constant f': no cap
        assert not any(math.isnan(c) for c in (problem.delta_touch, problem.delta_banach))
        constants = (problem.D, problem.contraction_q, problem.phi_prime_max, problem.lip_Y_bound)
        assert all(math.isfinite(c) for c in constants), constants

    @given(splines(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=150)
    def test_admission_monotone_in_delta(self, spline, frac, shrink):
        L = 1.5 * spline.max_slope + 1.0
        touch, banach = delta_caps(L, spline.max_slope, spline.slope_lipschitz)
        cap = min(touch, banach)
        delta2 = frac * cap if math.isfinite(cap) else frac
        prob2 = admit(ProblemParams(L=L, delta=delta2, spline=spline))
        prob1 = admit(ProblemParams(L=L, delta=shrink * delta2, spline=spline))
        assert 0.0 <= prob1.contraction_q <= prob2.contraction_q < 1.0
        assert math.isfinite(prob1.lip_Y_bound)
        # denominators in the curvature transfer stay above 1 - q
        assert 1.0 - prob1.contraction_q > 0.0
