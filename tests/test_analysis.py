import math

import numpy as np
import pytest

from striplex.analysis import (
    KinkReport,
    curvature_transfer,
    kink_transfer_report,
    residual_infinity_laplacian,
    richardson_extrapolate,
    second_derivatives_top,
    write_report,
)
from striplex.boundary import BoundarySpline
from striplex.construction import solve_contacts, u_interior
from striplex.errors import DomainError
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

    def test_elementwise_over_arrays(self):
        qs = np.random.default_rng(5).normal(size=(3, 4))
        columns = richardson_extrapolate(H_SCHEDULE, qs)
        for j in range(4):
            assert columns[j] == richardson_extrapolate(H_SCHEDULE, qs[:, j].tolist())


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
    def test_one_sided_second_matches_prediction(self, vee_problem):
        # u' = f'(y(x)) through the contact identity, at 0 and +-h
        hs = np.array(H_SCHEDULE)
        n = len(hs)
        y = solve_contacts(np.concatenate([[0.0], hs, -hs]), vee_problem.delta, vee_problem).y
        up = vee_problem.spline.derivative(y)
        left = (up[0] - up[n + 1 :]) / hs
        right = (up[1 : n + 1] - up[0]) / hs
        assert richardson_extrapolate(H_SCHEDULE, left) == pytest.approx(UPP_MINUS, rel=1e-6)
        assert richardson_extrapolate(H_SCHEDULE, right) == pytest.approx(UPP_PLUS, rel=1e-6)


class TestKinkTransferReport:
    def test_vee_single_report(self, vee_problem):
        report = kink_transfer_report(vee_problem)
        assert all(column.shape == (1,) for column in report)
        r = KinkReport(*(column[0] for column in report))
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
        # transverse one-sided second differences of u at the midpoint of the
        # kink's contact segment, from (0, 0) to (0, delta) on vee: the two
        # quotients straddle the segment and their gap tends to the
        # curvature jump, so C^2 fails along the whole segment
        delta = vee_problem.delta
        steps = np.array([0.0, 1.0, 2.0, -1.0, -2.0])
        for h in H_SCHEDULE:
            u0, up1, up2, dn1, dn2 = u_interior(steps * h, np.full(5, 0.5 * delta), vee_problem)
            right = (up2 - 2.0 * up1 + u0) / (h * h)
            left = (dn2 - 2.0 * dn1 + u0) / (h * h)
            assert abs(right - left) > 0.5

    def test_linear_empty(self, linear_problem, monkeypatch):
        # no kink: empty columns, and the oracle is never called
        from striplex import oracle

        monkeypatch.delattr(oracle, "brute_force_u")
        report = kink_transfer_report(linear_problem)
        assert report._fields == KinkReport._fields
        assert all(column.shape == (0,) for column in report)

    def test_one_oracle_call_per_report(self, two_kink_problem, monkeypatch):
        # u' at x0 and x0 +- h for three h, each from two oracle points, for
        # both kinks at once
        from striplex import oracle

        sizes = []
        brute = oracle.brute_force_u

        def counting(point, *args):
            sizes.append(np.broadcast(*point).size)
            return brute(point, *args)

        monkeypatch.setattr(oracle, "brute_force_u", counting)
        kink_transfer_report(two_kink_problem)
        assert sizes == [28]

    def test_two_kinks_sorted_and_order_preserving(self, two_kink_problem):
        r = kink_transfer_report(two_kink_problem)
        assert r.y0.tolist() == [0.0, 0.5]
        assert np.all(r.denom_minus >= 1.0 - two_kink_problem.contraction_q)
        assert np.all(r.denom_plus >= 1.0 - two_kink_problem.contraction_q)
        lhs = r.upp_plus_pred - r.upp_minus_pred
        rhs = r.fpp_plus - r.fpp_minus
        # the curvature rises at the first kink and falls at the second
        assert np.sign(rhs).tolist() == [1.0, -1.0]
        assert np.array_equal(np.sign(lhs), np.sign(rhs))
        # the predicted columns are the closed-form transfer, bit for bit
        pred = second_derivatives_top(r.y0, two_kink_problem)
        assert np.array_equal(r.upp_minus_pred, pred[0]) and np.array_equal(r.upp_plus_pred, pred[1])
        assert np.array_equal(r.upp_minus_pred, r.fpp_minus / r.denom_minus)
        assert np.array_equal(r.upp_plus_pred, r.fpp_plus / r.denom_plus)

    def test_exports(self, tmp_path, vee_problem):
        import json

        def text(fmt):
            write_report(tmp_path / fmt, report, fmt)
            return (tmp_path / fmt).read_bytes().decode("utf-8")

        report = kink_transfer_report(vee_problem)
        lines = text("csv").strip().split("\n")
        assert lines[0].startswith("y0,x0,fpp_minus")
        assert len(lines) == 2
        doc = json.loads(text("structured"))
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
        with pytest.raises(DomainError, match=r"^at grid point \(x=0.0, d=0.01\): too close to the strip edges"):
            residual_infinity_laplacian((0.0, 0.01), vee_problem, 1e-2)
        with pytest.raises(DomainError):
            residual_infinity_laplacian((0.0, 0.09), vee_problem, 1e-2)
        for h in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"^h must be finite and > 0, got {h!r}$"):
                residual_infinity_laplacian((0.0, 0.05), vee_problem, h)

    def test_refinement_check_skips_flat_regions(self, two_kink_problem, linear_problem):
        # the flat piece of the two-kink profile has residual at rounding
        # noise; the default probes must stay in the curved region
        from striplex import verify

        res = verify.check_residual_refinement(two_kink_problem, verify.VerifyConfig())
        assert res.status == "PASS"
        assert "n/a" not in res.detail
        res = verify.check_residual_refinement(linear_problem, verify.VerifyConfig())
        assert res.status == "PASS"  # everything at the rounding floor

