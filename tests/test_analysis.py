import math

import numpy as np
import pytest

from striplex.analysis import (
    curvature_transfer,
    fd_derivative_top,
    kink_reports_to_csv,
    kink_reports_to_structured,
    kink_transfer_report,
    residual_infinity_laplacian,
    richardson_extrapolate,
    second_derivatives_top,
)
from striplex.boundary import BoundarySpline
from striplex.construction import contact_inverse
from striplex.errors import DomainError, ValidationError
from striplex.params import ProblemParams, admit

H_SCHEDULE = (1e-3, 5e-4, 2.5e-4)
# exact transfer values for the vee kink at L=2, delta=0.1:
# phi'(0) = 1/2, denominators 1 -+ 0.025
UPP_MINUS = -0.5 / 1.025
UPP_PLUS = 0.5 / 0.975


class TestRichardson:
    def test_exact_on_polynomials(self):
        hs = (1e-2, 5e-3, 2.5e-3)
        q = [3.0 + 2.0 * h + 7.0 * h * h for h in hs]
        assert richardson_extrapolate(hs, q) == pytest.approx(3.0, abs=1e-12)

    def test_single_sample_passthrough(self):
        assert richardson_extrapolate((1e-3,), (42.0,)) == 42.0


class TestSecondDerivativesTop:
    def test_vee_kink(self, vee_problem):
        minus, plus = second_derivatives_top(0.0, vee_problem)
        assert minus == pytest.approx(UPP_MINUS, rel=1e-15)
        assert plus == pytest.approx(UPP_PLUS, rel=1e-15)

    def test_linear_profile(self, linear_problem):
        assert second_derivatives_top(0.3, linear_problem) == (0.0, 0.0)

    def test_collinear_knot_agrees(self):
        spline = BoundarySpline(f0=0.0, knots=((0.0, 0.0), (1.0, 0.25), (2.0, 0.5)))
        problem = admit(ProblemParams(L=2.0, delta=0.1, spline=spline))
        minus, plus = second_derivatives_top(1.0, problem)
        assert minus == plus


class TestCurvatureTransfer:
    def test_zero_fixed(self):
        assert curvature_transfer(0.0, 0.1, 0.5) == 0.0

    def test_degenerate_height_is_identity(self):
        for t in (-0.5, 0.2, 1.7):
            assert curvature_transfer(t, 0.0, 0.5) == t

    def test_worked_triple_increasing(self):
        vals = [curvature_transfer(t, 0.1, 0.5) for t in (-0.5, 0.0, 0.5)]
        assert vals[0] == pytest.approx(UPP_MINUS, rel=1e-15)
        assert vals[1] == 0.0
        assert vals[2] == pytest.approx(UPP_PLUS, rel=1e-15)
        assert vals[0] < vals[1] < vals[2]


class TestFdDerivativeTop:
    def test_constant_all_variants(self, constant_problem):
        for side in ("central", "left", "right"):
            for order in ("first", "second"):
                fd = fd_derivative_top(0.3, constant_problem, 1e-4, side=side, order=order)
                assert fd == pytest.approx(0.0, abs=1e-9)

    def test_linear_first_derivative(self, linear_problem):
        fd = fd_derivative_top(0.7, linear_problem, 1e-5)
        assert fd == pytest.approx(1.0, abs=1e-9)

    def test_step_guard(self, vee_problem):
        with pytest.raises(DomainError):
            fd_derivative_top(0.0, vee_problem, 0.0)
        with pytest.raises(ValidationError):
            fd_derivative_top(0.0, vee_problem, 1e-4, side="up")
        with pytest.raises(ValidationError):
            fd_derivative_top(0.0, vee_problem, 1e-4, order="third")
        with pytest.raises(ValidationError):
            fd_derivative_top(0.0, vee_problem, 1e-4, source="tea-leaves")

    def test_one_sided_second_matches_prediction(self, vee_problem):
        # closed-form fast path for u'
        for side, expected in (("left", UPP_MINUS), ("right", UPP_PLUS)):
            qs = [
                fd_derivative_top(0.0, vee_problem, h, side=side, order="second")
                for h in H_SCHEDULE
            ]
            extrapolated = richardson_extrapolate(H_SCHEDULE, qs)
            assert extrapolated == pytest.approx(expected, rel=1e-6)

    def test_fast_and_slow_paths_agree(self, vee_problem):
        # identity-based u' versus u' from raw differences of the oracle
        for side in ("left", "right"):
            fast = fd_derivative_top(0.0, vee_problem, 5e-4, side=side, order="second")
            slow = fd_derivative_top(
                0.0, vee_problem, 5e-4, side=side, order="second", source="oracle"
            )
            assert slow == pytest.approx(fast, rel=1e-2)


class TestKinkTransferReport:
    def test_vee_single_report(self, vee_problem):
        reports = kink_transfer_report(vee_problem)
        assert len(reports) == 1
        r = reports[0]
        assert r.y0 == 0.0
        assert r.x0 == 0.0
        assert (r.fpp_minus, r.fpp_plus) == (-0.5, 0.5)
        assert (r.denom_minus, r.denom_plus) == (1.025, 0.975)
        assert r.upp_minus_pred == pytest.approx(UPP_MINUS, rel=1e-15)
        assert r.upp_plus_pred == pytest.approx(UPP_PLUS, rel=1e-15)
        assert r.upp_minus_fd == pytest.approx(UPP_MINUS, rel=1e-2)
        assert r.upp_plus_fd == pytest.approx(UPP_PLUS, rel=1e-2)
        # the measured one-sided gap certifies the lost C^2 regularity
        assert r.upp_minus_fd < r.upp_plus_fd

    def test_midsegment_jump_nonvanishing(self, vee_problem):
        r = kink_transfer_report(vee_problem)[0]
        assert all(abs(j) > 0.5 for j in r.midseg_jumps)

    def test_linear_empty(self, linear_problem):
        assert kink_transfer_report(linear_problem) == []

    def test_one_oracle_call_per_kink(self, two_kink_problem, monkeypatch):
        # u' at x0 and x0 +- h for three h, each from two oracle points
        from striplex import oracle

        sizes = []
        brute = oracle.brute_force_u

        def counting(point, *args):
            sizes.append(np.broadcast(*point).size)
            return brute(point, *args)

        monkeypatch.setattr(oracle, "brute_force_u", counting)
        kink_transfer_report(two_kink_problem)
        assert sizes == [14, 14]

    def test_two_kinks_sorted_and_order_preserving(self, two_kink_problem):
        reports = kink_transfer_report(two_kink_problem)
        assert [r.y0 for r in reports] == [0.0, 0.5]
        for r in reports:
            assert r.denom_minus >= 1.0 - two_kink_problem.contraction_q
            assert r.denom_plus >= 1.0 - two_kink_problem.contraction_q
            lhs = r.upp_plus_pred - r.upp_minus_pred
            rhs = r.fpp_plus - r.fpp_minus
            assert math.copysign(1.0, lhs) == math.copysign(1.0, rhs)

    def test_exports(self, vee_problem):
        import json

        reports = kink_transfer_report(vee_problem)
        text = kink_reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0].startswith("y0,x0,fpp_minus")
        assert len(lines) == 2
        doc = json.loads(kink_reports_to_structured(reports))
        row = doc["rows"][0]
        cols = lines[0].split(",")
        vals = [float(v) for v in lines[1].split(",")]
        for c, v in zip(cols, vals):
            assert row[c] == v


class TestResidual:
    def test_constant_exact_zero(self, constant_problem):
        assert residual_infinity_laplacian((0.3, 0.05), constant_problem, 1e-2) == 0.0

    def test_linear_at_rounding(self, linear_problem):
        assert abs(residual_infinity_laplacian((0.3, 0.05), linear_problem, 1e-2)) <= 1e-10

    def test_refinement_ratio(self, vee_problem):
        res = [
            abs(residual_infinity_laplacian((0.4, 0.05), vee_problem, h))
            for h in (1e-2, 5e-3, 2.5e-3)
        ]
        assert res[0] / res[1] >= 2.0
        assert res[1] / res[2] >= 2.0

    def test_edge_guard(self, vee_problem):
        with pytest.raises(DomainError):
            residual_infinity_laplacian((0.0, 0.01), vee_problem, 1e-2)
        with pytest.raises(DomainError):
            residual_infinity_laplacian((0.0, 0.09), vee_problem, 1e-2)

    def test_refinement_check_skips_flat_regions(self, two_kink_problem, linear_problem):
        # the flat piece of the two-kink profile has residual at rounding
        # noise; the default probes must stay in the curved region
        from striplex import verify

        res = verify.check_residual_refinement(two_kink_problem, verify.VerifyConfig())
        assert res.status == "PASS"
        assert "n/a" not in res.detail
        res = verify.check_residual_refinement(linear_problem, verify.VerifyConfig())
        assert res.status == "PASS"  # everything at the rounding floor


def test_gradient_identity_along_top_line(vee_problem):
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        y = float(rng.uniform(-1.5, 1.5))
        if abs(y) < 1e-4:
            continue
        checked += 1
        x = contact_inverse(y, 0.1, vee_problem)
        fd = fd_derivative_top(x, vee_problem, 1e-5)
        assert abs(fd - vee_problem.spline.derivative(y)) <= 1e-3
