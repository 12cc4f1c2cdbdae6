"""Admissibility constants for the strip extension problem.

Everything the contact-point construction needs is derived here from the
cone slope L, the strip height delta, and the two exact Lipschitz constants
of the boundary spline: the search-window radius D, the two upper caps on
delta (hyperbola-touching and contraction), the contraction factor of the
fixed-point map, and the resulting Lipschitz bound for the contact offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boundary import BoundarySpline
from .errors import AdmissibilityError, InvalidParametersError


def window_radius(L: float, L_f: float) -> float:
    """Radius factor D of the contact search window: at height d the
    maximizer of the cone envelope lies within D*d of x."""
    _require_slope_gap(L, L_f)
    return 2.0 * L * L_f / (L * L - L_f * L_f)


def delta_caps(L: float, L_f: float, lip_fprime: float) -> tuple[float, float]:
    """(delta_touch, delta_banach): strict upper caps on the strip height.

    delta_touch keeps the touching hyperbola strictly more curved than f on
    the search window; delta_banach makes the contact fixed-point map a
    contraction.  Both are +inf when f' is constant (lip_fprime == 0).
    """
    _require_slope_gap(L, L_f)
    if lip_fprime < 0 or not math.isfinite(lip_fprime):
        raise InvalidParametersError(f"Lip(f') must be finite and >= 0, got {lip_fprime!r}")
    if lip_fprime == 0.0:
        return math.inf, math.inf
    D = window_radius(L, L_f)
    touch = L / (lip_fprime * (1.0 + D * D) ** 1.5)
    banach = (L * L - L_f * L_f) ** 1.5 / (L * L * lip_fprime)
    return touch, banach


# the cone slopes admitted: the caps and phi' raise L^2 - L_f^2 to the power
# 3/2, which overflows from L ~ 5.6e102.  With L_f just below L, L^2 - L_f^2
# is a few ulps of L^2, whose power 3/2 leaves the normal range below
# L ~ 1e-94 and underflows to 0 below L ~ 1e-100
_MIN_SLOPE = 1e-90
_MAX_SLOPE = 1e100


def _require_slope_gap(L: float, L_f: float) -> None:
    if not (math.isfinite(L) and math.isfinite(L_f)):
        raise InvalidParametersError(f"L and L_f must be finite, got {L!r}, {L_f!r}")
    if not 0.0 <= L_f < L:
        raise InvalidParametersError(
            f"cone slope must strictly dominate the data slope: need 0 <= L_f < L, got L={L!r}, L_f={L_f!r}"
        )
    if not L <= _MAX_SLOPE:
        raise InvalidParametersError(f"cone slope L={L!r} too large: need L <= {_MAX_SLOPE!r}, or L**3 overflows")
    if not L >= _MIN_SLOPE:
        raise InvalidParametersError(
            f"cone slope L={L!r} too small: need L >= {_MIN_SLOPE!r}, or (L**2 - L_f**2)**1.5 underflows"
        )


@dataclass(frozen=True)
class ProblemParams:
    """Raw problem statement: cone slope, strip height, boundary spline."""

    L: float
    delta: float
    spline: BoundarySpline

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise InvalidParametersError(f"delta must be finite and > 0, got {self.delta!r}")
        _require_slope_gap(self.L, self.spline.max_slope)


@dataclass(frozen=True)
class AdmissibleProblem:
    """ProblemParams plus every derived constant, validated once.

    Immutable; all downstream evaluation is pure, so instances may be shared
    freely across threads.
    """

    params: ProblemParams
    D: float
    delta_touch: float
    delta_banach: float
    contraction_q: float
    phi_prime_max: float
    lip_Y_bound: float

    @property
    def L(self) -> float:
        return self.params.L

    @property
    def delta(self) -> float:
        return self.params.delta

    @property
    def spline(self) -> BoundarySpline:
        return self.params.spline

    @property
    def L_f(self) -> float:
        return self.params.spline.max_slope

    @property
    def lip_fprime(self) -> float:
        return self.params.spline.slope_lipschitz

    @property
    def lip_Y_bound_variant(self) -> float:
        """Quotient bound built from the variant constant with Lip(f')
        entering squared instead of linearly.  Tracked so the measured
        quotient can adjudicate between the two candidate constants; never
        used as a gate."""
        c = self.delta * self.phi_prime_max * self.lip_fprime**2
        if c >= 1.0:
            return math.inf
        return c / (1.0 - c)


def admit(params: ProblemParams) -> AdmissibleProblem:
    """Validate delta against both caps and assemble all derived constants.

    Raises AdmissibilityError (naming the violated cap) unless delta is
    strictly below min(delta_touch, delta_banach).
    """
    L = params.L
    L_f = params.spline.max_slope
    lip_fp = params.spline.slope_lipschitz
    D = window_radius(L, L_f)
    touch, banach = delta_caps(L, L_f, lip_fp)
    violated = []
    if params.delta >= touch:
        violated.append(("delta_touch", touch))
    if params.delta >= banach:
        violated.append(("delta_banach", banach))
    if violated:
        names = ", ".join(f"{n} = {v:.6g}" for n, v in violated)
        raise AdmissibilityError(
            f"delta = {params.delta:.6g} is not strictly below {names}",
            violated_cap=violated[0][0],
        )
    phi_prime_max = L * L / (L * L - L_f * L_f) ** 1.5
    q = params.delta * phi_prime_max * lip_fp
    # delta < delta_banach is equivalent to q < 1
    return AdmissibleProblem(
        params=params,
        D=D,
        delta_touch=touch,
        delta_banach=banach,
        contraction_q=q,
        phi_prime_max=phi_prime_max,
        lip_Y_bound=q / (1.0 - q),
    )
