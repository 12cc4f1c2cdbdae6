"""Closed-form evaluation of the cone-envelope extension inside the strip.

The value at (x, d) is obtained by locating the boundary contact point
through the scalar fixed-point equation

    Y = d * phi(f'(x + Y)),      phi(t) = t / sqrt(L^2 - t^2),

and substituting into u = f(x + Y) - L * sqrt(d^2 + Y^2).  For admitted
problems the iteration map is a global contraction with factor
q = delta * phi_prime_max * Lip(f'), so plain fixed-point iteration from
Y = 0 with the a-posteriori stopping rule |Y_{k+1} - Y_k| <= tol*(1-q)/q
guarantees both |Y - Y*| <= tol and residual <= tol, and the contraction
bounds how many steps the rule can take (_iteration_cap).  Heights d < delta
use the same equation with d in place of delta: the admissibility caps only
tighten as the height grows, so admissibility at delta covers every d below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .params import AdmissibleProblem

DEFAULT_TOL = 1e-12
# points per block of solve_contacts, run in C order: bounds its temporaries to a few MB
_SOLVE_BLOCK = 1 << 14


def require_tol(tol: float) -> None:
    """The contact-solve tolerance rule, 0 < tol < inf: at tol = inf the
    stopping rule holds after one step whatever the error."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")


def _require_finite(y) -> None:
    """DomainError unless every element of y is finite."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"need finite y, got {y[~np.isfinite(y)][0].item()!r}")


def _libm(fn, *args) -> np.ndarray:
    """fn from math applied elementwise over the broadcast args: np.hypot and
    np.power round differently from the C library in rare cases."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    flat = [a.ravel().tolist() for a in args]
    return np.fromiter(map(fn, *flat), float, args[0].size).reshape(args[0].shape)


def phi(t, L: float):
    """t / sqrt(L^2 - t^2) on |t| < L, elementwise."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= L):
        raise DomainError(f"phi requires |t| < L everywhere, L={L!r}")
    return t / np.sqrt(L * L - t * t)


def phi_prime(t, L: float):
    """L^2 / (L^2 - t^2)^(3/2) on |t| < L, elementwise."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= L):
        raise DomainError(f"phi_prime requires |t| < L everywhere, L={L!r}")
    return L * L / _libm(math.pow, L * L - t * t, 1.5)


@dataclass(frozen=True)
class ContactSolution:
    """Result of solve_contacts: arrays of the broadcast (x, height) shape,
    numpy scalars for a scalar point."""

    Y: float
    y: float
    value: float
    iterations: int


def _iteration_cap(problem: AdmissibleProblem, threshold: float) -> int:
    """Iterations after which the stopping rule |Y_k - Y_(k-1)| <= threshold
    of solve_contacts has held at every point in exact arithmetic.

    From Y_0 = 0 the first step |Y_1| is at most Ymax = delta * phi(L_f),
    and step k is at most q^(k-1) * Ymax.  The cap asks for half the
    threshold, which leaves room for the rounding of the float iteration;
    the threshold is floored at the smallest subnormal, so the cap stays
    finite when a tiny tol underflows the threshold to 0."""
    L, L_f = problem.L, problem.L_f
    y_max = problem.delta * L_f / math.sqrt(L * L - L_f * L_f)
    threshold = max(threshold, math.ulp(0.0))
    if y_max <= 0.5 * threshold:
        return 1
    return 1 + math.ceil((math.log(threshold) - math.log(2.0 * y_max)) / math.log(problem.contraction_q))


def solve_contacts(x, height, problem: AdmissibleProblem, tol: float = DEFAULT_TOL) -> ContactSolution:
    """Solve Y = height * phi(f'(x + Y)) at every point of the broadcast
    (x, height) arrays and evaluate u there.

    A point leaves the iteration as soon as its own step meets the
    a-posteriori threshold, so it takes exactly the iterations it would
    take alone.  Every returned iterate satisfies |Y - Y*| <= tol and
    |Y - height*phi(f'(x+Y))| <= tol.
    """
    require_tol(tol)
    x, height = (a.astype(float) for a in np.broadcast_arrays(x, height))
    bad_x = ~np.isfinite(x)
    if np.any(bad_x):
        raise DomainError(f"contact solve needs finite x, got {float(x[bad_x][0])!r}")
    bad_height = ~((0.0 < height) & (height <= problem.delta))
    if np.any(bad_height):
        raise DomainError(
            f"height must lie in (0, delta], got {float(height[bad_height][0])!r} with delta={problem.delta!r}"
        )
    spline = problem.spline
    L = problem.L
    q = problem.contraction_q
    threshold = tol * (1.0 - q) / q if q > 0.0 else math.inf
    cap = _iteration_cap(problem, threshold)
    shape = x.shape
    x, height = x.ravel(), height.ravel()
    Y, y, value = (np.empty(x.size) for _ in range(3))
    iterations = np.empty(x.size, dtype=int)
    for first in range(0, x.size, _SOLVE_BLOCK):
        block = slice(first, first + _SOLVE_BLOCK)
        xb, hb = x[block], height[block]
        # the block's still-iterating points: flat index, x, height and iterate
        active, xa, ha, Ya = np.arange(first, first + xb.size), xb, hb, np.zeros(xb.size)
        for k in range(1, cap + 1):
            if not active.size:
                break
            # |f'| <= L_f < L everywhere (ProblemParams), so the square root is real
            slope = spline.derivative(xa + Ya)
            Y_next = ha * slope / np.sqrt(L * L - slope * slope)
            done = np.abs(Y_next - Ya) <= threshold
            finished = active[done]
            Y[finished], iterations[finished] = Y_next[done], k
            keep = ~done
            active, xa, ha, Ya = active[keep], xa[keep], ha[keep], Y_next[keep]
        if active.size:
            raise NonConvergenceError(
                f"contact solve at (x={float(xa[0])!r}, height={float(ha[0])!r}) "
                f"did not converge in {cap} iterations"
            )
        y[block] = xb + Y[block]
        value[block] = spline.value(y[block]) - L * _libm(math.hypot, hb, Y[block])
    if not np.all(np.isfinite(value)):
        raise DomainError("u overflows the float range at some x")
    # [()] turns a 0-d result into a numpy scalar
    return ContactSolution(*(a.reshape(shape)[()] for a in (Y, y, value, iterations)))


def contact_inverse(y, height, problem: AdmissibleProblem):
    """x(y) = y - height * phi(f'(y)): the top-line abscissa whose contact
    point at the given height is y.  Strictly increasing for admitted
    problems; elementwise over finite y and the broadcast height."""
    h = np.asarray(height, dtype=float)
    bad = ~((0.0 < h) & (h <= problem.delta))
    if np.any(bad):
        raise DomainError(f"height must lie in (0, delta], got {h[bad][0].item()!r} with delta={problem.delta!r}")
    _require_finite(y)
    return y - height * phi(problem.spline.derivative(y), problem.L)


def u_at_contact(y, problem: AdmissibleProblem):
    """u at the top-line point (x(y), delta), in closed form:
    f(y) - delta * L^2 / sqrt(L^2 - f'(y)^2), elementwise over finite y."""
    _require_finite(y)
    L = problem.L
    slope = problem.spline.derivative(y)
    return problem.spline.value(y) - problem.delta * L * L / np.sqrt(L * L - slope * slope)


def u_interior(x, d, problem: AdmissibleProblem, tol: float = DEFAULT_TOL):
    """u at every point of the broadcast (x, d) arrays, anywhere in the
    strip, via the height-d contact solve."""
    return solve_contacts(x, d, problem, tol=tol).value


def segment_value(y, t, problem: AdmissibleProblem):
    """Points and u-values at parameters t of the contact segments of y,
    elementwise over the broadcast (y, t).

    The segment joins (y, 0) to (x(y), delta); u is affine along it with
    slope -L per unit length, so value = f(y) - L * t * |segment|.  y must
    be finite, as for contact_inverse.
    """
    if not np.all((0.0 <= np.asarray(t)) & (np.asarray(t) <= 1.0)):
        raise DomainError(f"segment parameter must lie in [0, 1], got {t!r}")
    delta = problem.delta
    x_top = contact_inverse(y, delta, problem)
    length = _libm(math.hypot, delta, x_top - y)
    point = (y + t * (x_top - y), t * delta)
    return point, problem.spline.value(y) - problem.L * t * length
