"""End-to-end acceptance checks at the standard desk configuration.

Standard configuration: vee slope profile (knots (-1, 0.5), (0, 0), (1, 0.5),
f0 = 0), cone slope L = 2, strip height delta = 0.1, window [-2, 2].  One
test per criterion; each prints its PASS/FAIL line with the measured values.
The run uses VerifyConfig() as it stands, the configuration `striplex
verify` runs by default, so these tests gate what the CLI prints.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import pytest

from striplex import verify
from striplex.analysis import second_derivatives_top

CRITERIA = {
    1: "oracle_equivalence",
    2: "localization",
    3: "fixed_point_contract",
    4: "gradient_identity",
    5: "kink_transfer",
    6: "envelope_coincidence",
    7: "segment_affinity",
    8: "lipschitz_quotient",
    9: "residual_refinement",
    10: "degenerate_closed_forms",
}

@pytest.fixture(scope="module")
def results(vee_problem):
    run = verify.run_acceptance(vee_problem, verify.VerifyConfig())
    return {r.name: r for r in run}


def _gate(results, criterion: int):
    res = results[CRITERIA[criterion]]
    print(f"[criterion {criterion:02d}] {res.status}: {res.name} - {res.detail}")
    assert res.status == "PASS", res.detail
    return res


def test_criterion_01_oracle_equivalence(results):
    _gate(results, 1)


def test_criterion_02_localization(results):
    _gate(results, 2)


def test_criterion_03_fixed_point_contract(results):
    _gate(results, 3)


def test_criterion_04_gradient_identity(results):
    _gate(results, 4)


def test_criterion_05_kink_transfer(results, vee_problem):
    _gate(results, 5)
    # the predicted one-sided values at the kink are exact fractions
    minus, plus = second_derivatives_top(0.0, vee_problem)
    assert minus == pytest.approx(-0.5 / 1.025, rel=1e-15)
    assert plus == pytest.approx(0.5 / 0.975, rel=1e-15)
    assert minus < plus


def test_criterion_06_envelope_coincidence(results):
    _gate(results, 6)


def test_criterion_07_segment_affinity(results):
    _gate(results, 7)


def test_criterion_08_lipschitz_quotient(results):
    res = _gate(results, 8)
    # the variant bound with Lip(f') squared is reported, not gated
    assert "variant bound" in res.detail


def test_criterion_09_residual_refinement(results):
    _gate(results, 9)


def test_criterion_10_degenerate_closed_forms(results):
    _gate(results, 10)
