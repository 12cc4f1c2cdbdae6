"""The strip extension problem and its admissibility constants.

Everything the contact-point construction needs is derived here from the
cone slope L, the strip height delta, and the two exact Lipschitz constants
of the boundary spline: the search-window radius D, the two upper caps on
delta (hyperbola-touching and contraction), the contraction factor of the
fixed-point map, and the resulting Lipschitz bound for the contact offset.
"""

from __future__ import annotations

import math
import sys
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
    den = L * L * lip_fprime
    if den >= sys.float_info.min:
        banach = (L * L - L_f * L_f) ** 1.5 / den
    else:
        # a tiny Lip(f') takes L^2 * Lip(f') below the normal range, to 0 at
        # worst: divide in two steps; a cap past the float range is +inf
        banach = (L * L - L_f * L_f) ** 1.5 / (L * L) / lip_fprime
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
    """Problem statement: cone slope, strip height, boundary spline, and the
    constants derived from them."""

    L: float
    delta: float
    spline: BoundarySpline

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise InvalidParametersError(f"delta must be finite and > 0, got {self.delta!r}")
        _require_slope_gap(self.L, self.spline.max_slope)

    @property
    def L_f(self) -> float:
        return self.spline.max_slope

    @property
    def D(self) -> float:
        return window_radius(self.L, self.L_f)

    @property
    def caps(self) -> tuple[float, float]:
        """(delta_touch, delta_banach), see delta_caps."""
        return delta_caps(self.L, self.L_f, self.spline.slope_lipschitz)

    @property
    def phi_prime_max(self) -> float:
        L, L_f = self.L, self.L_f
        return L * L / (L * L - L_f * L_f) ** 1.5

    @property
    def contraction_q(self) -> float:
        """Contraction factor of the contact fixed-point map; below 1
        exactly when delta < delta_banach."""
        return self.delta * self.phi_prime_max * self.spline.slope_lipschitz


@dataclass(frozen=True)
class AdmissibleProblem(ProblemParams):
    """A ProblemParams whose delta lies strictly below both caps, the
    condition under which the construction and its checks hold.

    Immutable; all downstream evaluation is pure, so instances may be shared
    freely across threads.
    """

    def __post_init__(self):
        super().__post_init__()
        names = ("delta_touch", "delta_banach")
        violated = [(name, cap) for name, cap in zip(names, self.caps) if self.delta >= cap]
        if violated:
            listed = ", ".join(f"{n} = {v:.6g}" for n, v in violated)
            raise AdmissibilityError(
                f"delta = {self.delta:.6g} is not strictly below {listed}",
                violated_cap=violated[0][0],
            )

    @property
    def lip_Y_bound(self) -> float:
        """Lipschitz bound q/(1-q) of the contact offset Y."""
        q = self.contraction_q
        return q / (1.0 - q)

    @property
    def lip_Y_bound_variant(self) -> float:
        """Quotient bound built from the variant constant with Lip(f')
        entering squared instead of linearly.  Tracked so the measured
        quotient can adjudicate between the two candidate constants; never
        used as a gate."""
        c = self.delta * self.phi_prime_max * self.spline.slope_lipschitz**2
        if c >= 1.0:
            return math.inf
        return c / (1.0 - c)


def admit(params: ProblemParams) -> AdmissibleProblem:
    """params as an AdmissibleProblem.

    Raises AdmissibilityError (naming the violated cap) unless delta is
    strictly below min(delta_touch, delta_banach).
    """
    return AdmissibleProblem(params.L, params.delta, params.spline)
