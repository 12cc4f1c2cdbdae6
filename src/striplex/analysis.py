"""Differential diagnostics: curvature transfer at kinks and the
infinity-Laplacian residual.

A slope kink of the boundary profile at y0 reappears on the top line at
x0 = x(y0) with one-sided second derivatives

    f''_(y0) / (1 - delta * phi'(f'(y0)) * f''_(y0))        (each side),

so distinct boundary curvatures stay distinct: the transfer map
t -> t / (1 - delta*C*t) is strictly increasing while the denominators stay
above 1 - q.  The measurement never trusts that formula: u' comes from
central quotients of the brute-force oracle alone, and Richardson
extrapolation removes the leading error of the one-sided quotients of u'.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import construction, oracle
from .errors import DomainError, ValidationError
from .ioutil import write_table
from .params import AdmissibleProblem

DEFAULT_H_SCHEDULE = (1e-3, 5e-4, 2.5e-4)
# inner step for slope-from-oracle samples; small enough that the one-sided
# bias at a kink stays two orders below the outer quotient scale
INNER_H = 1e-7
# scan step of every oracle sample taken here
ORACLE_H_Y = 1e-6


class KinkReport(NamedTuple):
    """Boundary curvature jumps paired with their predicted and measured
    images on the top line, as columns: one entry per kink, in increasing
    y0."""

    y0: np.ndarray
    x0: np.ndarray
    fpp_minus: np.ndarray
    fpp_plus: np.ndarray
    upp_minus_pred: np.ndarray
    upp_plus_pred: np.ndarray
    upp_minus_fd: np.ndarray
    upp_plus_fd: np.ndarray
    denom_minus: np.ndarray
    denom_plus: np.ndarray


def curvature_transfer(t: float, delta: float, C: float) -> float:
    """t / (1 - delta*C*t); the identity map when delta == 0."""
    return t / (1.0 - delta * C * t)


def second_derivatives_top(y0, problem: AdmissibleProblem) -> tuple:
    """One-sided second derivatives of u on the top line at x(y0), from the
    closed-form transfer of the boundary one-sided second derivatives,
    elementwise over finite y0.  Both sides coincide iff the boundary
    curvatures do."""
    construction.require_strip_points(problem, y0, problem.delta, name="y")
    spline = problem.spline
    C = construction.phi_prime(spline.derivative(y0), problem.L)
    delta = problem.delta
    return (
        curvature_transfer(spline.second_left(y0), delta, C),
        curvature_transfer(spline.second_right(y0), delta, C),
    )


def richardson_extrapolate(hs, qs):
    """Extrapolate samples Q(h) to h = 0 by Neville's scheme, elementwise
    when each sample qs[i] is an array.

    Exact for Q polynomial in h of degree < len(hs); kills the O(h) and
    O(h^2) terms of one-sided quotients on the default 3-step schedule.
    """
    if len(hs) != len(qs) or len(hs) < 1:
        raise ValidationError("need equally many steps and samples, at least one each")
    t = list(qs)
    n = len(t)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * hs[i] / (hs[i - k] - hs[i])
    return t[-1]


def kink_transfer_report(problem: AdmissibleProblem) -> KinkReport:
    """The report of every boundary kink, in increasing y0; empty columns,
    and no oracle call, when f' has no slope jumps.

    The predicted columns are second_derivatives_top at the kinks.
    Measured one-sided second derivatives come from the oracle alone: u'
    sampled as central quotients (step INNER_H) of the brute-force oracle
    at x0 and x0 +- h, then one-sided quotients Richardson-extrapolated
    over h in DEFAULT_H_SCHEDULE.  The 14 oracle points of every kink take
    one call.
    """
    y0, fpp_minus, fpp_plus = problem.spline.kinks()
    if not y0.size:
        return KinkReport(*(np.empty(0) for _ in KinkReport._fields))
    delta = problem.delta
    x0 = construction.contact_inverse(y0, delta, problem)
    C = construction.phi_prime(problem.spline.derivative(y0), problem.L)

    # u' at x0, x0 + hs and x0 - hs: one row per offset, one column per kink
    hs = np.array(DEFAULT_H_SCHEDULE)
    n = len(hs)
    x = np.concatenate([[0.0], hs, -hs])[:, None] + x0
    up, dn = oracle.brute_force_u((np.add.outer((INNER_H, -INNER_H), x), delta), problem, ORACLE_H_Y).value
    slope = (up - dn) / (2.0 * INNER_H)
    q_plus = (slope[1 : n + 1] - slope[0]) / hs[:, None]
    q_minus = (slope[0] - slope[n + 1 :]) / hs[:, None]

    pred_minus, pred_plus = second_derivatives_top(y0, problem)
    fd_minus, fd_plus = (richardson_extrapolate(hs, q) for q in (q_minus, q_plus))
    denom_minus, denom_plus = (1.0 - delta * C * t for t in (fpp_minus, fpp_plus))
    return KinkReport(y0, x0, fpp_minus, fpp_plus, pred_minus, pred_plus, fd_minus, fd_plus, denom_minus, denom_plus)


def residual_infinity_laplacian(
    point: tuple[float, float],
    problem: AdmissibleProblem,
    h: float,
    tol: float = construction.DEFAULT_TOL,
) -> float:
    """Central-difference u_x^2 u_xx + 2 u_x u_d u_xd + u_d^2 u_dd at point
    (coordinates may be arrays).

    Off the contact segments of curvature jumps the residual decays at
    O(h^2) once h is below the distance to the nearest such segment.  A
    difference that leaves the floats (h*h at 0, an overflow) raises
    DomainError naming h.
    """
    construction.require_positive("h", h)
    x, d = (np.asarray(a, dtype=float) for a in point)
    near_edge = ~((d - 2.0 * h > 0.0) & (problem.delta - d > 2.0 * h))
    construction.require_strip_points(
        problem, x, d, (near_edge, DomainError, lambda i, p: f"too close to the strip edges for step h={h!r}")
    )
    # the nine-point stencil, offsets in units of h
    ox = np.array([0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
    od = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    u0, uxp, uxm, udp, udm, upp, upm, ump, umm = construction.u_interior(
        np.add.outer(ox * h, x), np.add.outer(od * h, d), problem, tol=tol
    )
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            ux = (uxp - uxm) / (2.0 * h)
            ud = (udp - udm) / (2.0 * h)
            uxx = (uxp - 2.0 * u0 + uxm) / (h * h)
            udd = (udp - 2.0 * u0 + udm) / (h * h)
            uxd = (upp - upm - ump + umm) / (4.0 * h * h)
            return ux * ux * uxx + 2.0 * ux * ud * uxd + ud * ud * udd
    except FloatingPointError as exc:
        raise DomainError(f"residual at step h={h!r} leaves the floats ({exc})") from None


# -- exports -------------------------------------------------------------


def write_report(path, report: KinkReport, fmt: str) -> None:
    """Write the "csv" or "structured" kink report to path through
    ioutil.write_table, one row per kink at fmt_real precision."""
    write_table(path, fmt, "kink_report", KinkReport._fields, report.y0.size, lambda i, j: [c[i:j] for c in report])
