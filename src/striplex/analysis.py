"""Differential diagnostics: curvature transfer at kinks, gradient identity,
and the infinity-Laplacian residual.

A slope kink of the boundary profile at y0 reappears on the top line at
x0 = x(y0) with one-sided second derivatives

    f''_(y0) / (1 - delta * phi'(f'(y0)) * f''_(y0))        (each side),

so distinct boundary curvatures stay distinct: the transfer map
t -> t / (1 - delta*C*t) is strictly increasing while the denominators stay
above 1 - q.  The measurements here never trust that formula: one-sided
difference quotients of u' are built either from the contact identity
u'(x(y)) = f'(y) (fast path) or from raw finite differences of the
brute-force oracle (slow path), and Richardson extrapolation removes the
leading quotient error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import construction, oracle
from .errors import DomainError, ValidationError
from .ioutil import fmt_real
from .params import AdmissibleProblem

DEFAULT_H_SCHEDULE = (1e-3, 5e-4, 2.5e-4)
# inner step for slope-from-oracle samples; small enough that the one-sided
# bias at a kink stays two orders below the outer quotient scale
INNER_H = 1e-7
# scan step of every oracle sample taken here
ORACLE_H_Y = 1e-6

FD_SIDES = ("central", "left", "right")
FD_ORDERS = ("first", "second")
FD_SOURCES = ("closed_form", "oracle")

KINK_REPORT_COLUMNS = (
    "y0",
    "x0",
    "fpp_minus",
    "fpp_plus",
    "upp_minus_pred",
    "upp_plus_pred",
    "upp_minus_fd",
    "upp_plus_fd",
    "denom_minus",
    "denom_plus",
)


@dataclass(frozen=True)
class KinkReport:
    """Boundary curvature jump paired with its predicted and measured image
    on the top line.  midseg_jumps holds the transverse one-sided
    second-difference gap at the segment midpoint per probe step
    (informative: a nonzero limit witnesses the curvature jump along the
    whole segment)."""

    y0: float
    x0: float
    fpp_minus: float
    fpp_plus: float
    upp_minus_pred: float
    upp_plus_pred: float
    upp_minus_fd: float
    upp_plus_fd: float
    denom_minus: float
    denom_plus: float
    midseg_jumps: tuple[float, ...]


def curvature_transfer(t: float, delta: float, C: float) -> float:
    """t / (1 - delta*C*t); the identity map when delta == 0."""
    return t / (1.0 - delta * C * t)


def second_derivatives_top(y0, problem: AdmissibleProblem) -> tuple:
    """One-sided second derivatives of u on the top line at x(y0), from the
    closed-form transfer of the boundary one-sided second derivatives,
    elementwise over finite y0.  Both sides coincide iff the boundary
    curvatures do."""
    construction._require_finite(y0)
    spline = problem.spline
    C = construction.phi_prime(spline.derivative(y0), problem.L)
    delta = problem.delta
    return (
        curvature_transfer(spline.second_left(y0), delta, C),
        curvature_transfer(spline.second_right(y0), delta, C),
    )


def richardson_extrapolate(hs, qs) -> float:
    """Extrapolate samples Q(h) to h = 0 by Neville's scheme.

    Exact for Q polynomial in h of degree < len(hs); kills the O(h) and
    O(h^2) terms of one-sided quotients on the default 3-step schedule.
    """
    if len(hs) != len(qs) or len(hs) < 1:
        raise ValidationError("need equally many steps and samples, at least one each")
    t = [float(q) for q in qs]
    h = [float(v) for v in hs]
    n = len(t)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * h[i] / (h[i - k] - h[i])
    return t[-1]


def _u_top(x, problem: AdmissibleProblem, source: str, tol: float):
    """u on the top line at the points x, in one call."""
    if source == "closed_form":
        return construction.u_interior(x, problem.delta, problem, tol=tol)
    return oracle.brute_force_u((x, problem.delta), problem, ORACLE_H_Y).value


def _u_prime_top(x, problem: AdmissibleProblem, source: str, tol: float = construction.DEFAULT_TOL):
    """u' on the top line at the points x, in one call: f' at the contact
    points, or a central quotient of step INNER_H of the oracle."""
    if source == "closed_form":
        sol = construction.solve_contacts(x, problem.delta, problem, tol=tol)
        return problem.spline.derivative(sol.y)
    up, dn = _u_top(np.add.outer((INNER_H, -INNER_H), x), problem, source, tol)
    return (up - dn) / (2.0 * INNER_H)


def fd_derivative_top(
    x,
    problem: AdmissibleProblem,
    h: float,
    side: str = "central",
    order: str = "first",
    source: str = "closed_form",
    tol: float = construction.DEFAULT_TOL,
):
    """Difference quotient of u (order='first') or of u' (order='second')
    along the top line, elementwise over x.

    One-sided quotients are O(h) accurate, central ones O(h^2) away from
    kinks.  source='closed_form' samples the contact solve (u' through the
    identity u'(x(y)) = f'(y)); source='oracle' samples the brute-force
    maximizer only (step ORACLE_H_Y), with u' as a central quotient of step
    INNER_H.
    """
    if h <= 0:
        raise DomainError(f"need h > 0, got {h!r}")
    if side not in FD_SIDES:
        raise ValidationError(f"unknown side {side!r}; expected one of {FD_SIDES}")
    if order not in FD_ORDERS:
        raise ValidationError(f"unknown order {order!r}; expected one of {FD_ORDERS}")
    if source not in FD_SOURCES:
        raise ValidationError(f"unknown source {source!r}; expected one of {FD_SOURCES}")

    if order == "first":
        sample = lambda xx: _u_top(xx, problem, source, tol)
    else:
        sample = lambda xx: _u_prime_top(xx, problem, source, tol)
    # both stencil points, as offsets from x, sampled in one call
    ahead, behind = {"central": (h, -h), "right": (h, 0.0), "left": (0.0, -h)}[side]
    u_ahead, u_behind = sample(np.add.outer((ahead, behind), x))
    return (u_ahead - u_behind) / (ahead - behind)


def _midsegment_jumps(y0: float, x0: float, problem: AdmissibleProblem) -> tuple[float, ...]:
    """Transverse one-sided second-difference gap of u at the segment
    midpoint, per step.  The two quotients straddle the segment; their
    difference tends to the curvature jump across it."""
    delta = problem.delta
    length = math.hypot(delta, x0 - y0)
    nx, nd = delta / length, -(x0 - y0) / length
    mx, md = y0 + 0.5 * (x0 - y0), 0.5 * delta
    # stencil offsets along the normal, in units of the step
    steps = np.array([0.0, 1.0, 2.0, -1.0, -2.0])
    jumps = []
    for h in DEFAULT_H_SCHEDULE:
        # keep the five-point transverse stencil inside the strip
        hh = min(h, 0.2 * delta / (abs(nd) + 1e-3))
        u0, up1, up2, dn1, dn2 = construction.u_interior(mx + steps * hh * nx, md + steps * hh * nd, problem)
        right = (up2 - 2.0 * up1 + u0) / (hh * hh)
        left = (dn2 - 2.0 * dn1 + u0) / (hh * hh)
        jumps.append(right - left)
    return tuple(jumps)


def kink_transfer_report(problem: AdmissibleProblem) -> list[KinkReport]:
    """One report per boundary kink, sorted by y0; empty when f' has no
    slope jumps.

    Measured one-sided second derivatives come from the assumption-free slow
    path: u' sampled as central quotients (step INNER_H) of the
    brute-force oracle at x0 and x0 +- h, then one-sided quotients
    Richardson-extrapolated over h in DEFAULT_H_SCHEDULE.  The 14 oracle
    points of a kink take one call.
    """
    hs = np.array(DEFAULT_H_SCHEDULE)
    n = len(hs)
    offsets = np.concatenate([[0.0], hs, -hs])
    delta = problem.delta
    reports = []
    for kink in problem.spline.kinks():
        y0 = kink.y0
        x0 = construction.contact_inverse(y0, delta, problem)
        C = construction.phi_prime(problem.spline.derivative(y0), problem.L)
        denom_minus = 1.0 - delta * C * kink.second_left
        denom_plus = 1.0 - delta * C * kink.second_right

        # u' at x0, x0 + hs and x0 - hs
        up = _u_prime_top(x0 + offsets, problem, "oracle")
        q_plus = (up[1 : n + 1] - up[0]) / hs
        q_minus = (up[0] - up[n + 1 :]) / hs

        reports.append(
            KinkReport(
                y0=y0,
                x0=float(x0),
                fpp_minus=kink.second_left,
                fpp_plus=kink.second_right,
                upp_minus_pred=kink.second_left / denom_minus,
                upp_plus_pred=kink.second_right / denom_plus,
                upp_minus_fd=richardson_extrapolate(hs, q_minus),
                upp_plus_fd=richardson_extrapolate(hs, q_plus),
                denom_minus=denom_minus,
                denom_plus=denom_plus,
                midseg_jumps=_midsegment_jumps(y0, float(x0), problem),
            )
        )
    return reports


def residual_infinity_laplacian(
    point: tuple[float, float],
    problem: AdmissibleProblem,
    h: float,
    tol: float = construction.DEFAULT_TOL,
) -> float:
    """Central-difference u_x^2 u_xx + 2 u_x u_d u_xd + u_d^2 u_dd at point
    (coordinates may be arrays).

    Off the contact segments of curvature jumps the residual decays at
    O(h^2) once h is below the distance to the nearest such segment.
    """
    if h <= 0:
        raise DomainError(f"need h > 0, got {h!r}")
    x, d = point
    delta = problem.delta
    if not np.all((d - 2.0 * h > 0.0) & (delta - d > 2.0 * h)):
        raise DomainError(
            f"point (x={x!r}, d={d!r}) too close to the strip edges for step h={h!r}"
        )
    # the nine-point stencil, offsets in units of h
    ox = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
    od = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    u0, uxp, uxm, udp, udm, upp, upm, ump, umm = construction.u_interior(
        np.add.outer(ox * h, x), np.add.outer(od * h, d), problem, tol=tol
    )
    ux = (uxp - uxm) / (2.0 * h)
    ud = (udp - udm) / (2.0 * h)
    uxx = (uxp - 2.0 * u0 + uxm) / (h * h)
    udd = (udp - 2.0 * u0 + udm) / (h * h)
    uxd = (upp - upm - ump + umm) / (4.0 * h * h)
    return ux * ux * uxx + 2.0 * ux * ud * uxd + ud * ud * udd


# -- exports -------------------------------------------------------------


def kink_reports_to_csv(reports: list[KinkReport]) -> str:
    lines = [",".join(KINK_REPORT_COLUMNS)]
    for r in reports:
        lines.append(",".join(fmt_real(getattr(r, c)) for c in KINK_REPORT_COLUMNS))
    return "\n".join(lines) + "\n"


def kink_reports_to_structured(reports: list[KinkReport]) -> str:
    """Single JSON document mirroring the CSV columns at the same precision."""
    rows = ",".join(
        "{%s}" % ",".join(f'"{c}":{fmt_real(getattr(r, c))}' for c in KINK_REPORT_COLUMNS)
        for r in reports
    )
    return '{"kind":"kink_report","rows":[%s]}\n' % rows
