"""Closed-form evaluation of the cone-envelope extension inside the strip.

The value at (x, d) is obtained by locating the boundary contact point
through the scalar fixed-point equation

    Y = d * phi(f'(x + Y)),      phi(t) = t / sqrt(L^2 - t^2),

and substituting into u = f(x + Y) - L * sqrt(d^2 + Y^2).  For admitted
problems the map is a global contraction with factor q = delta *
phi_prime_max * Lip(f'), so G(y) = y - x - d*phi(f'(y)) increases with
G' >= 1 - q.  f' is piecewise linear, so the solve finds each contact's
spline piece by bisection over the knots' images, solves G = 0 there by a
Newton iteration whose step count is capped up front (_newton_cap), and
certifies the result with one step of the map under the a-posteriori rule
|Y - Y_N| <= tol*(1-q)/q, which guarantees |Y - Y*| <= tol.  Heights d <
delta use the same equation with d in place of delta: the admissibility
caps only tighten as the height grows, so admissibility at delta covers
every d below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, ValidationError
from .params import AdmissibleProblem, ProblemParams

DEFAULT_TOL = 1e-12
# points per block of solve_contacts, run in C order: bounds its temporaries to a few MB
_SOLVE_BLOCK = 1 << 14


def require_positive(name: str, value: float) -> None:
    """The rule of every tolerance and step, 0 < value < inf: at tol = inf
    the contact solve's stopping rule holds after one step whatever the
    error, and a non-finite step leaves a scan or a stencil no points."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


def raise_first_bad_point(coords: dict, checks: tuple) -> None:
    """The package's one pointwise input check.  coords maps each coordinate
    name to its array over the points; checks holds (bad, error, message)
    per condition, in the order a point is checked: bad is a mask over the
    points, and message(i, point) the text for flat point i, with point
    mapping each coordinate name to its value there.  The coordinates and
    masks broadcast to the points' shape: coordinates that do not are
    refused first, naming every shape.  Raises for the first bad point in C
    order, naming it, with the first of its checks that fails."""
    try:
        np.broadcast_shapes(*(np.shape(a) for a in coords.values()))
    except ValueError:
        shapes = ", ".join(f"{name} of shape {np.shape(a)}" for name, a in coords.items())
        raise ValidationError(f"coordinates do not broadcast together: {shapes}") from None
    if not any(mask.any() for mask, _, _ in checks):
        return
    arrays = np.broadcast_arrays(*coords.values(), *(mask for mask, _, _ in checks))
    values, masks = arrays[: len(coords)], arrays[len(coords) :]
    i = int(np.flatnonzero(np.logical_or.reduce(masks))[0])
    point = {name: a.flat[i].item() for name, a in zip(coords, values)}
    _, error, message = next(check for check, mask in zip(checks, masks) if mask.flat[i])
    named = ", ".join(f"{name}={value!r}" for name, value in point.items())
    raise error(f"at grid point ({named}): {message(i, point)}")


def require_strip_points(problem: ProblemParams, x, d, *extra, name: str = "x") -> None:
    """raise_first_bad_point over (x, d) with the strip-point conditions,
    then the extra ones: x (a contact point y for name "y") is finite and
    the height d lies in (0, delta].  Each mask is taken on its own
    coordinate's shape, so a scalar height costs one comparison."""
    x, d = np.asarray(x, dtype=float), np.asarray(d, dtype=float)
    raise_first_bad_point({name: x, "d": d}, (
        (~np.isfinite(x), DomainError, lambda i, p: f"need finite {name}, got {p[name]!r}"),
        (
            ~((0.0 < d) & (d <= problem.delta)),
            DomainError,
            lambda i, p: f"height must lie in (0, delta], got {p['d']!r} with delta={problem.delta!r}",
        ),
        *extra,
    ))


def require_finite_u(x: np.ndarray, d: np.ndarray, *values: np.ndarray) -> None:
    """DomainError naming the first point of (x, d) where a value of u, or
    of a bound on it, overflowed."""
    finite = np.logical_and.reduce([np.isfinite(v) for v in values])
    raise_first_bad_point({"x": x, "d": d}, (
        (~finite, DomainError, lambda i, p: f"u overflows the float range at x = {p['x']!r}"),
    ))


def _libm(fn, *args) -> np.ndarray:
    """fn from math applied elementwise over the broadcast args, one Python
    call per element: phi_prime's math.pow, which np.power does not round
    alike in rare cases, and hypot below _HYPOT_MAP elements."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    flat = [a.ravel().tolist() for a in args]
    return np.fromiter(map(fn, *flat), float, args[0].size).reshape(args[0].shape)


# hypot: below _HYPOT_MAP elements it maps math.hypot (~110 ns an element),
# from there on it runs the kernel (~55 ufunc calls, ~40 us a call plus ~20 ns
# an element); the two cross near 350-400 elements (2-core host, Python 3.11,
# numpy 2.4).  The cut-off sits lower, so that grids of a few hundred points,
# such as the tests' golden brute-force grid, take the kernel's path: at most
# ~25 us more per call in between, over a handful of calls per `verify`.  The
# kernel runs in equal chunks of at most _HYPOT_CHUNK elements, over nine work
# rows of a chunk
_HYPOT_MAP = 128
_HYPOT_CHUNK = 8192
# 2**27 + 1: x*_VELTKAMP splits x into two halves of 26 significant bits
_VELTKAMP = 134217729.0


def hypot(a, b) -> np.ndarray:
    """math.hypot(a, b) elementwise over the broadcast arrays, bit for bit;
    np.hypot rounds differently in rare cases.

    The kernel repeats the IEEE operations of CPython 3.11's two-argument
    math.hypot: both coordinates are scaled by the power of two 2**-e that
    brings max(|a|, |b|) into [0.5, 1) (e from frexp), squared exactly by
    Dekker's split product (Numer. Math. 18, 1971), summed onto 1.0 with
    the rounding errors carried in two compensation terms, rooted, and
    corrected by one differential step, h + (sum - h^2)/(2h), before the
    scaling is undone.  Where max(|a|, |b|) is zero, subnormal below 2**-1024
    (where the scale overflows), infinite or nan, the kernel yields nan, and
    those elements take math.hypot."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    if a.size < _HYPOT_MAP:
        return _libm(math.hypot, a, b)
    shape = a.shape
    a, b = a.reshape(-1), b.reshape(-1)
    out = np.empty(a.size)
    n = -(-a.size // -(-a.size // _HYPOT_CHUNK))
    work, e = np.empty((9, n)), np.empty(n, dtype=np.intc)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for first in range(0, a.size, n):
            k = min(n, a.size - first)
            chunk = slice(first, first + k)
            _hypot_kernel(a[chunk], b[chunk], out[chunk], work[:, :k], e[:k])
    bad = np.flatnonzero(np.isnan(out))
    if bad.size:
        out[bad] = _libm(math.hypot, a[bad], b[bad])
    return out.reshape(shape)


def _hypot_kernel(a, b, out, work, e) -> None:
    """The kernel of hypot over one chunk, into out; work holds nine rows of
    the chunk's length and e one of C ints."""
    # per coordinate (rows 0 and 1 of each pair): x, the scaled value, then
    # its square's high part z; lo, its square's low part zz; hi and t scratch
    x0, x1, lo0, lo1, hi0, hi1, t0, t1, scale = work
    x, lo, hi, t = work[0:2], work[2:4], work[4:6], work[6:8]
    np.abs(a, out=x0)
    np.abs(b, out=x1)
    # max(|a|, |b|) in hi0, and its frexp exponent e
    np.maximum(x0, x1, out=hi0)
    np.frexp(hi0, out=(scale, e))
    np.negative(e, out=e)
    np.ldexp(1.0, e, out=scale)
    np.multiply(x, scale, out=x)
    _exact_square(x, x, lo, hi, t)
    # fast two-sums onto 1.0 of the first square (csum hi0, error t0) and
    # then the second (csum hi1, error t1); the errors add up in frac1 (lo0,
    # the squares' low parts) and frac2 (t0)
    np.add(1.0, x0, out=hi0)
    np.subtract(1.0, hi0, out=t0)
    np.add(t0, x0, out=t0)
    np.add(hi0, x1, out=hi1)
    np.subtract(hi0, hi1, out=t1)
    np.add(t1, x1, out=t1)
    np.add(lo0, lo1, out=lo0)
    np.add(t0, t1, out=t0)
    csum, frac1, frac2 = hi1, lo0, t0
    # h = sqrt(csum - 1 + (frac1 + frac2)), in x0
    h = x0
    np.subtract(csum, 1.0, out=h)
    np.add(frac1, frac2, out=x1)
    np.add(h, x1, out=h)
    np.sqrt(h, out=h)
    # the exact square zh + zzh of h, that of -h*h negated, leaves the sums:
    # csum - zh in hi0, its error in csum
    zh, zzh = x1, t1
    _exact_square(h, zh, zzh, hi0, lo1)
    np.subtract(csum, zh, out=hi0)
    np.subtract(csum, hi0, out=csum)
    np.subtract(csum, zh, out=csum)
    np.subtract(frac1, zzh, out=frac1)
    np.add(frac2, csum, out=frac2)
    # h + (csum - 1 + (frac1 + frac2)) / (2h), then unscaled
    np.subtract(hi0, 1.0, out=hi0)
    np.add(frac1, frac2, out=frac1)
    np.add(hi0, frac1, out=hi0)
    np.multiply(h, 2.0, out=zzh)
    np.divide(hi0, zzh, out=hi0)
    np.add(h, hi0, out=h)
    np.divide(h, scale, out=out)


def _exact_square(x, z, zz, hi, lo) -> None:
    """Dekker's exact product x*x = z + zz over work arrays of x's shape,
    as CPython's dl_mul(x, x) computes it: z = fl(x*x) and zz its rounding
    error.  z may be x; hi and lo are overwritten."""
    t = zz
    np.multiply(x, _VELTKAMP, out=t)
    np.subtract(t, x, out=hi)
    np.subtract(t, hi, out=hi)
    np.subtract(x, hi, out=lo)
    # p = hi*hi in t; q = hi*lo + lo*hi = 2*(hi*lo) exactly, in hi
    np.multiply(hi, hi, out=t)
    np.multiply(hi, lo, out=hi)
    np.add(hi, hi, out=hi)
    np.multiply(lo, lo, out=lo)
    np.add(t, hi, out=z)
    # zz = ((p - z) + q) + lo*lo
    np.subtract(t, z, out=t)
    np.add(t, hi, out=t)
    np.add(t, lo, out=zz)


def phi_prime(t, L: float):
    """L^2 / (L^2 - t^2)^(3/2) on |t| < L, elementwise."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) >= L):
        raise DomainError(f"phi_prime requires |t| < L everywhere, L={L!r}")
    return L * L / _libm(math.pow, L * L - t * t, 1.5)


def _slope_and_root(y, problem: ProblemParams) -> tuple:
    """(f'(y), sqrt(L^2 - f'(y)^2)) at contact points y, elementwise; the
    root is real, as |f'| <= L_f < L (ProblemParams)."""
    L = problem.L
    slope = problem.spline.derivative(y)
    return slope, np.sqrt(L * L - slope * slope)


@dataclass(frozen=True)
class ContactSolution:
    """Result of solve_contacts: arrays of the broadcast (x, height) shape,
    numpy scalars for a scalar point."""

    Y: float
    y: float
    value: float


def _newton_constant(problem: AdmissibleProblem) -> float:
    """C with |F''|/(2*F') <= C over |S| <= L_f, for F(S) = S - alpha -
    k*phi(S) on any piece, k = height*c: as |k|*phi'(S) <= q, F' >= 1 - q
    and |F''| = |k|*phi'(S)*3|S|/(L^2 - S^2) <= q*3*L_f/(L^2 - L_f^2).  A
    Newton step from an error e in S leaves at most C*e^2."""
    L, L_f, q = problem.L, problem.L_f, problem.contraction_q
    return 1.5 * q * L_f / ((1.0 - q) * (L * L - L_f * L_f))


def _newton_cap(problem: AdmissibleProblem, threshold: float) -> int:
    """Newton steps after which every point of solve_contacts has met its
    stopping rule in exact arithmetic.

    On a piece S = f'(y) is affine in y, and Newton's iterate is the same
    in S as in y; the clip keeps every iterate on the piece, so |S| <= L_f
    and each step leaves at most C*e^2 of an error e (_newton_constant).
    From an error of at most the piece's slope range 2*L_f, k steps leave
    (in y) at most width * rho^(2^k - 1), rho = 2*L_f*C = 3*q*L_f^2 / ((1 -
    q)*(L^2 - L_f^2)).  For admitted problems rho < 2/3: delta < delta_touch
    bounds q by ((1 - a^2)/(1 + a^2)^2)^(3/2), a = L_f/L.  The cap asks for
    an error that makes |G| <= (1 + q)*error at most half the threshold,
    leaving room for rounding, plus the step that sees it.  Every piece is
    at most 2*max|t| wide; the threshold is floored at the smallest
    subnormal, so the cap stays finite when a tiny tol underflows it to 0:
    it is at most 13."""
    L_f, q = problem.L_f, problem.contraction_q
    rho = 2.0 * L_f * _newton_constant(problem)
    if rho == 0.0:
        return 1
    knots = problem.spline.knots
    log_width = math.log(2.0) + math.log(max(abs(knots[0][0]), abs(knots[-1][0])))
    log_ratio = math.log(max(threshold, math.ulp(0.0))) - math.log(2.0 * (1.0 + q)) - log_width
    if log_ratio >= 0.0:
        return 1
    return 1 + math.ceil(math.log2(1.0 + log_ratio / math.log(rho)))


def solve_contacts(x, height, problem: AdmissibleProblem, tol: float = DEFAULT_TOL) -> ContactSolution:
    """Solve Y = height * phi(f'(x + Y)) at every point of the broadcast
    (x, height) arrays and evaluate u there.

    Each point's contact y = x + Y is the root of G(y) = y - x -
    height*phi(f'(y)), which increases with G' >= 1 - q.  A bisection over
    the knots finds the piece that holds it (_locate), a Newton iteration
    on that piece's own f' solves it (_newton), and one step of the
    fixed-point map certifies it: Y = height*f'(x + Y_N)/sqrt(L^2 - f'^2)
    is returned only where |Y - Y_N| <= tol*(1 - q)/q, which by the
    contraction gives |Y - Y*| <= tol; any other point raises
    NonConvergenceError, naming it.  Every step is elementwise and each
    point leaves the iteration on its own step, so a point gets the same
    bits in any batch as alone.
    """
    require_positive("tol", tol)
    require_strip_points(problem, x, height)
    x, height = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(x, height))
    q = problem.contraction_q
    threshold = tol * (1.0 - q) / q if q > 0.0 else math.inf
    cap = _newton_cap(problem, threshold)
    t, s, root = _knot_roots(problem)
    phi = s / root
    shape = x.shape
    x, height = x.ravel(), height.ravel()
    Y, y, value = (np.empty(x.size) for _ in range(3))
    for first in range(0, x.size, _SOLVE_BLOCK):
        block = slice(first, first + _SOLVE_BLOCK)
        xb, hb = x[block], height[block]
        Y_N = _newton(xb, hb, _locate(xb, hb, t, phi), problem, threshold, cap)
        slope, root = _slope_and_root(xb + Y_N, problem)
        Yb = hb * slope / root
        bad = np.flatnonzero(~(np.abs(Yb - Y_N) <= threshold))
        if bad.size:
            i = bad[0]
            raise NonConvergenceError(
                f"contact solve at (x={float(xb[i])!r}, height={float(hb[i])!r}) did not converge in "
                f"{cap} Newton steps: |Y - Y_N| = {float(abs(Yb[i] - Y_N[i])):.3e} > tol*(1-q)/q = {threshold:.3e}"
            )
        Y[block] = Yb
        y[block] = xb + Yb
        value[block] = problem.spline.value(y[block]) - problem.L * hypot(hb, Yb)
    require_finite_u(x, height, value)
    # [()] turns a 0-d result into a numpy scalar
    return ContactSolution(*(a.reshape(shape)[()] for a in (Y, y, value)))


def _knot_roots(problem: AdmissibleProblem) -> tuple:
    """The knots t_j and slopes s_j of f', with sqrt(L^2 - s_j^2) as
    _slope_and_root takes it."""
    table, L = problem.spline._table, problem.L
    s = table.s[1:]
    return table.t[1:], s, np.sqrt(L * L - s * s)


def _locate(x, height, t, phi) -> np.ndarray:
    """The piece-table row of each point's contact: the number r of the K
    knots whose images X_j = t_j - height*phi_j, phi_j = phi(s_j), lie at
    or below x, found by bisection in ceil(log2(K + 1)) steps.  X_j
    increases with j, as G(t_j) = X_j - x does; wherever rounding breaks
    that, the search still ends at a sign change of the computed images:
    r = 0 or X_(r-1) <= x, and r = K or x < X_r."""
    bits = t.size.bit_length()
    # knot r - 1 at index r, and past the last knot images at +inf, so
    # every trial row reads a knot
    pad = (1 << bits) - t.size
    t = np.concatenate([[0.0], t, np.full(pad, math.inf)])
    phi = np.concatenate([[0.0], phi, np.zeros(pad)])
    row = np.zeros(x.size, dtype=np.intp)
    for bit in reversed(range(bits)):
        # row + 2^bit is taken if its last knot images at or below x
        trial = row + (1 << bit)
        row = np.where(t[trial] - height * phi[trial] <= x, trial, row)
    return row


def _newton(x, height, row, problem: AdmissibleProblem, threshold: float, cap: int) -> np.ndarray:
    """Y_N per point: Newton's iterate for the root of G on its row, where
    f' = s + c*(y - t_a) between knots a and b.

    A tail row is flat, and its Y = height*s/sqrt(L^2 - s^2) is exact.  On
    a knot piece the start is the secant between the knots' images: with
    g_j = G(t_j) = X_j - x, Y_a + g_a/(g_a - g_b)*(Y_b - Y_a), where Y_j =
    t_j - X_j.  Each step is clipped to the piece and to the sign bracket
    of G seen so far.  A point stops after a step delta with |delta| <=
    threshold, or whose C*delta^2 (C of _newton_constant, times |c| in y)
    is below the rounding of the piece's offsets, |t_a - x| and |t_b - x|,
    so that the next step would not change Y; or after cap steps."""
    table, L, C = problem.spline._table, problem.L, _newton_constant(problem)
    t, s_knot, root = _knot_roots(problem)
    # a tail row reads one knot at both ends
    a, b = np.maximum(row - 1, 0), np.minimum(row, t.size - 1)
    Y = height * s_knot[a] / root[a]
    p = np.flatnonzero(a != b)
    if not p.size:
        return Y
    # per knot-piece point: its height, row slope and curvature, offset
    # base = t_a - x (so y - t_a = Y - base), bracket [lo, hi] and iterate
    a, b, h, r = a[p], b[p], height[p], row[p]
    s, c = table.s[r], table.c[r]
    base = lo = t[a] - x[p]
    hi = t[b] - x[p]
    Y_a, Y_b = Y[p], h * s_knot[b] / root[b]
    g_a, g_b = lo - Y_a, hi - Y_b
    # fmax and fmin put a nan (0/0 where rounding leaves g_a = g_b) on the bracket
    with np.errstate(invalid="ignore", divide="ignore"):
        Yp = np.fmin(np.fmax(Y_a + g_a / (g_a - g_b) * (Y_b - Y_a), lo), hi)
    k = h * c * (L * L)
    # 1.21 = 1.1^2 lets the error before a step exceed the step by 10 %
    with np.errstate(divide="ignore"):
        rounding = 2.0**-53 * np.maximum(np.abs(lo), np.abs(hi))
        settled = np.maximum(threshold * threshold, rounding / (1.21 * C * np.abs(c)))
    going = np.ones(p.size, dtype=bool)
    for _ in range(cap):
        S = c * (Yp - base) + s
        root_S = np.sqrt(L * L - S * S)
        G = Yp - h * S / root_S
        lo = np.where(G < 0.0, Yp, lo)
        hi = np.where(G > 0.0, Yp, hi)
        step = np.where(going, G / (1.0 - k / (root_S * root_S * root_S)), 0.0)
        Yp = np.fmin(np.fmax(Yp - step, lo), hi)
        going &= ~(step * step <= settled)
        if not going.any():
            break
    Y[p] = Yp
    return Y


def contact_inverse(y, height, problem: AdmissibleProblem):
    """x(y) = y - height * phi(f'(y)): the top-line abscissa whose contact
    point at the given height is y.  Strictly increasing for admitted
    problems; elementwise over finite y and the broadcast height."""
    require_strip_points(problem, y, height, name="y")
    slope, root = _slope_and_root(y, problem)
    return y - height * (slope / root)


def u_at_contact(y, problem: AdmissibleProblem):
    """u at the top-line point (x(y), delta), in closed form:
    f(y) - delta * L^2 / sqrt(L^2 - f'(y)^2), elementwise over finite y."""
    require_strip_points(problem, y, problem.delta, name="y")
    L = problem.L
    return problem.spline.value(y) - problem.delta * L * L / _slope_and_root(y, problem)[1]


def u_interior(x, d, problem: AdmissibleProblem, tol: float = DEFAULT_TOL):
    """u at every point of the broadcast (x, d) arrays, anywhere in the
    strip, via the height-d contact solve."""
    return solve_contacts(x, d, problem, tol=tol).value


def segment_value(y, t, problem: AdmissibleProblem):
    """Points and u-values at parameters t of the contact segments of y,
    elementwise over the broadcast (y, t).

    The segment joins (y, 0) to (x(y), delta); u is affine along it with
    slope -L per unit length, so value = f(y) - L * t * |segment|.  t is
    checked first, then y must be finite, as for contact_inverse.
    """
    ys, ts = np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    outside = (~((0.0 <= ts) & (ts <= 1.0)), DomainError, lambda i, p: "segment parameter must lie in [0, 1]")
    raise_first_bad_point({"y": ys, "t": ts}, (outside,))
    delta = problem.delta
    x_top = contact_inverse(y, delta, problem)
    length = hypot(delta, x_top - y)
    point = (y + t * (x_top - y), t * delta)
    return point, problem.spline.value(y) - problem.L * t * length
