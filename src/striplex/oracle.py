"""Independent brute-force evaluators used as ground truth.

Two oracles live here, both deliberately ignorant of the fixed-point
construction, and both find their extrema with one pruned scan,
_scan_argmax, whose result is that of a scan of every sample:

* direct maximization of the cone envelope g(y) = f(y) - L*sqrt(d^2 +
  (x-y)^2) over a fine boundary grid, refined by golden-section search on
  the bracket around the best sample.  The grid scan is pruned coarse to
  fine, from one root cell per point that spans the point's whole grid:
  a Piyavskii-Shubert bound from the Lipschitz constant L_f + L and
  a second-order bound drop every cell of the grid whose samples all lie
  strictly below the best sample seen, so the scan finds the same best
  sample as a scan of every grid point, bit for bit.  Why no cell that
  could win is dropped depends on the height.  Below delta_touch, g is
  strictly concave on |y - x| <= D*d, where the cone bends by more than
  Lip(f'), and strictly monotone beyond d*phi(L_f) <= D*d/2, where the
  cone is steeper than f; so its samples rise to one maximum and fall,
  which both the scan and the refinement rest on.  From delta_touch on,
  nothing keeps g unimodal, and the second-order bound uses the lower
  bound -(Lip(f') + L/d) of g'', which holds at every height.  Nothing
  comes from the construction;
* minimal/maximal Lipschitz envelopes of the strip boundary data, whose
  coincidence pins u from both sides: extrema over samples of the two
  boundary lines, computed where the scan reads them, one scan per line
  for both extrema.  On the evenly spaced bottom line the samples of +-f
  minus the cone rise and fall for the reasons above (the heights lie
  below delta < delta_touch).  On the top line, sampled at evenly spaced
  contact points y, the samples of +-u minus the cone rise and fall
  wherever the point lies a height h below the line with q_h + q < 1,
  q_h = h*phi'(L_f)*Lip(f'), that is h < delta_banach - delta: their slope
  in y is X'(y) > 0 times a function that can vanish only where the
  cone's slope is at most L_f, and falls there.  Points farther below
  keep the first-order bound from the y-spacing and q alone.

Grid fills and exports for both provenances are also defined here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import construction
from .errors import ConfigurationError, DomainError, ValidationError
from .ioutil import format_reals, write_table
from .params import AdmissibleProblem, ProblemParams

PROVENANCES = ("closed_form", "brute_force", "mw_min", "mw_max")

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement: bracket width at which a bracket stops, and
# the most steps it takes
_GOLDEN_TOL = 1e-13
_GOLDEN_MAX_ITER = 90

# most boundary samples one oracle scan may range over, checked before any
# scan starts; no scan holds its samples in one array, so it bounds time.  The
# CLI defaults range over at most ~4.2e6 (mw_envelopes at h_y = 1e-6 on [-2, 2])
MAX_SCAN = 10_000_000
# most points one grid (nx*nd) or top line (nx) may hold, checked before
# allocating; on vee at this cap `construct` peaks at 236 MB RSS (8.5-9.0 s)
# and a 2048x2048 closed-form `grid` at 236 MB (3.9-4.3 s), 2-core host
MAX_POINTS = 2**22

# the pruned scan of both oracles: stride refinement per level, and the
# most samples one level takes at once (root cells come in chunks of
# _BUDGET // 2 points, two samples each).  On the 257x17 vee grid at h_y =
# 1e-6 the 1x scan reads 144,377 samples at ratio 2, 213,695 at 4 and
# 327,476 at 8 (each within 35 of that at budgets 6144 to 32768), in 24.3,
# 24.4 and 27.9 ms of CPU.  At ratio 4 the budget trades time for memory:
# brute_force_u over that grid's 2x window takes 26.2, 25.4, 24.4 and 23.9
# ms of CPU at 6144, 8192, 12288 and 16384 (medians of 30 alternating
# rounds in one process, 2-core host), with trace peaks of 1.6, 1.7, 1.8
# and 2.5 MB, and of 1.9, 2.2, 2.7 and 3.3 MB on the default mw_min grid;
# 32768 was no faster and took 3.6 and 4.9 MB
_REFINE = 4
_BUDGET = 16384
_PROBES = 64  # indices _first_past probes per round


def require_window(xmin: float, xmax: float, nx: int) -> None:
    """The rule of a sampled x window (a GridSpec, the construct top line):
    finite xmin < xmax whose width xmax - xmin, which np.linspace divides,
    is finite too, and nx >= 2 samples."""
    if not (math.isfinite(xmin) and math.isfinite(xmax - xmin) and xmin < xmax and nx >= 2):
        raise ValidationError(
            f"need finite xmin < xmax with a finite width and nx >= 2, got {xmin!r}, {xmax!r}, nx={nx!r}"
        )


@dataclass(frozen=True)
class GridSpec:
    """Sampling window on the strip plus the oracle step size."""

    xmin: float
    xmax: float
    nx: int
    nd: int
    h_y: float

    def __post_init__(self):
        require_window(self.xmin, self.xmax, self.nx)
        if self.nd < 2:
            raise ValidationError(f"need nd >= 2, got nd={self.nd!r}")
        if not self.nx * self.nd <= MAX_POINTS:
            raise ConfigurationError(f"grid needs nx*nd = {self.nx * self.nd} points, more than {MAX_POINTS}")
        if not 0.0 < self.h_y < math.inf:
            raise ValidationError(f"h_y must be finite and > 0, got {self.h_y!r}")

    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    def trimmed_window(self, problem: AdmissibleProblem) -> tuple[float, float]:
        """[xmin + margin, xmax - margin] with margin = 10*D*delta, where the
        envelope evaluation points live: the outer band anchors the envelope
        cones.  The one place that sets the margin."""
        margin = 10.0 * problem.D * problem.delta
        lo, hi = self.xmin + margin, self.xmax - margin
        if lo >= hi:
            raise ConfigurationError(f"window [{self.xmin!r}, {self.xmax!r}] too narrow for margin {margin!r}")
        return lo, hi

    def heights(self, delta: float) -> np.ndarray:
        """Sample heights, top row at delta."""
        # divide first so the top height is exactly delta
        return delta * (np.arange(1, self.nd + 1) / self.nd)


@dataclass(frozen=True)
class FieldGrid:
    """u sampled over a GridSpec window; values[i, j] pairs xs[i] with ds[j]."""

    spec: GridSpec
    provenance: str
    xs: np.ndarray
    ds: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class BruteResult:
    value: float
    argmax_y: float
    bound: float


def golden_section_max(fn: Callable[..., np.ndarray], lo, hi, args: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Maximize a unimodal fn on every bracket [lo[i], hi[i]] of the 1-D
    arrays lo and hi; returns (arg, value) arrays of their shape.

    fn(y, *args) maps probes y, one per bracket, to their values
    elementwise; args are the objective's per-bracket arrays.  A bracket
    stops once b - a <= _GOLDEN_TOL (at most _GOLDEN_MAX_ITER steps) and
    leaves the working arrays, its entries of args with it, so a call
    without brackets takes no step.  Tracks the best evaluation seen, so
    the result never falls below any probed point even if unimodality is
    marginal at the bracket edges.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    width = b - a
    step = _INV_PHI * width
    c, d = b - step, a + step
    fc, fd = fn(c, *args), fn(d, *args)
    first = fc >= fd
    best_y, best_v = np.where(first, c, d), np.where(first, fc, fd)
    # each bracket's (a, b, best_y, best_v) as it stops
    out, at, run = np.empty((4, a.size)), np.arange(a.size), args
    for i in range(_GOLDEN_MAX_ITER + 1):
        stops = np.ones(width.shape, dtype=bool) if i == _GOLDEN_MAX_ITER else width <= _GOLDEN_TOL
        if stops.any():
            out[:, at[stops]] = a[stops], b[stops], best_y[stops], best_v[stops]
            going, state = ~stops, (a, b, c, d, fc, fd, best_y, best_v, at, *run)
            a, b, c, d, fc, fd, best_y, best_v, at, *run = (v[going] for v in state)
        if not at.size:
            break
        # left: the maximum lies in [a, d], the inner probe c becomes d and
        # the new probe is c; right: in [c, b], d becomes c, the new probe d
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        inner, f_inner = np.where(left, c, d), np.where(left, fc, fd)
        width = b - a
        step = _INV_PHI * width
        probe = np.where(left, b - step, a + step)
        fp = fn(probe, *run)
        c, fc = np.where(left, probe, inner), np.where(left, fp, f_inner)
        d, fd = np.where(left, inner, probe), np.where(left, f_inner, fp)
        better = fp > best_v
        best_y, best_v = np.where(better, probe, best_y), np.where(better, fp, best_v)
    a, b, best_y, best_v = out
    mid = 0.5 * (a + b)
    fmid = fn(mid, *args)
    better = fmid > best_v
    return np.where(better, mid, best_y), np.where(better, fmid, best_v)


def brute_force_u(point: tuple, problem: ProblemParams, h_y: float, window_factor: float = 1.0) -> BruteResult:
    """Maximize f(y) - L*sqrt(d^2 + (x-y)^2) by grid scan plus refinement
    at every point of the broadcast (x, d) arrays; value and argmax_y are
    arrays of that shape, numpy scalars for a scalar point.

    The scan grid of a point is y_j = x + h_y*(j - n), j = 0..2n, covering
    the window |y - x| <= window_factor*D*d + h_y, for a finite
    window_factor of at least 1 (below 1 the window may miss the maximum).
    All points of a call go to one _scan_argmax, which skips every
    stretch of the grid whose bound lies below the best sample seen: the
    objective is (L_f + L)-Lipschitz in y, and the second-order bound takes
    curv_step = Lip(f')*h_y^2 below delta_touch and (Lip(f') + L/d)*h_y^2
    from it on.  The index found is the one np.argmax over all samples
    returns: below delta_touch because the samples rise to one maximum and
    fall (the objective is strictly concave on |y - x| <= D*d and strictly
    monotone beyond d*phi(L_f) <= D*d/2), from it on because the objective's
    second derivative is at least -(Lip(f') + L/d), as the bound needs.
    Golden-section refinement then runs on the brackets around those
    samples, all points at once.  bound is the worst-case scan error before
    refinement, from the Lipschitz constant.

    h_y and window_factor are checked first, then every point before any
    scan starts; the first bad point in C order is named in the error.
    problem need not be admitted: the scan needs only D, delta_touch,
    L_f + L and Lip(f'), which are defined at every delta.
    """
    construction.require_positive("h_y", h_y)
    if not (math.isfinite(window_factor) and window_factor >= 1.0):
        raise DomainError(f"need a finite window_factor >= 1.0, got {window_factor!r}")
    x, d = (np.asarray(a, dtype=float) for a in point)
    spline = problem.spline
    L = problem.L
    lip = problem.L_f + L
    t_far = max(abs(spline.knots[0][0]), abs(spline.knots[-1][0]))
    radius = window_factor * problem.D * d + h_y
    with np.errstate(invalid="ignore", over="ignore"):
        scan_size = 2.0 * radius / h_y + 1.0
    construction.require_strip_points(problem, x, d, (
        ~(scan_size <= MAX_SCAN),
        ConfigurationError,
        # scan_size has d's shape; i counts the broadcast points
        lambda i, p: _scan_message(
            np.broadcast_to(scan_size, np.broadcast(x, d).shape).flat[i].item(), "brute-force scan"
        ),
    ))
    x, d, radius = (np.array(a) for a in np.broadcast_arrays(x, d, radius))
    xs, ds, radius = x.ravel(), d.ravel(), radius.ravel()
    n = np.ceil(radius / h_y).astype(np.int64)
    # |best| + scale bounds the magnitude of every quantity met in
    # evaluating one sample (positions, the terms of f, the cone term);
    # the pruning slack of _scan_argmax is sized on it.  Near the top of the
    # float range it is inf, which prunes nothing
    with np.errstate(over="ignore"):
        scale = L * ds + lip * (np.abs(xs) + radius + t_far)
    dd = ds * ds

    def sample(p: np.ndarray, j: np.ndarray) -> np.ndarray:
        # f(y) - L*sqrt(d*d + (x - y)**2) at y = x + h_y*(j - n), in place
        x = xs[p]
        ys = h_y * (j - n[p]) + x
        cone = np.square(x - ys)
        cone += dd[p]
        v = spline.value(ys)
        v -= np.multiply(np.sqrt(cone, out=cone), L, out=cone)
        return v

    # near the ends of the float range the samples, the brackets and the
    # objective overflow; a non-finite result is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        # the second-order bound: below delta_touch the samples rise and
        # fall, so any curv_step serves; from it on, the objective bends
        # down by at most Lip(f') + L/d
        bend = np.where(ds < problem.caps[0], 0.0, L / ds) + spline.slope_lipschitz
        k, v_k = _scan_argmax(sample, 2 * n + 1, lip * h_y, bend * h_y * h_y, scale)
        lo, y_k, hi = (xs + h_y * (j - n) for j in (np.maximum(k - 1, 0), k, np.minimum(k + 1, 2 * n)))
        y_star, v_star = golden_section_max(
            lambda y, x, d: spline.value(y) - L * construction.hypot(d, x - y), lo, hi, (xs, ds)
        )
    worse = v_star < v_k
    y_star, v_star = np.where(worse, y_k, y_star).reshape(x.shape), np.where(worse, v_k, v_star).reshape(x.shape)
    construction.require_finite_u(x, d, v_star)
    return BruteResult(value=v_star[()], argmax_y=y_star[()], bound=0.5 * lip * h_y)


def _scan_argmax(
    sample: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: np.ndarray,
    lip_step: float,
    curv_step: np.ndarray | float,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(k, v_k) per point p: the first index of the largest of sample(p, j),
    j = 0..count[p]-1, which is what np.argmax over that point's full scan
    returns, without evaluating most of the scan; v_k is -inf at count 0.
    sample maps arrays of point numbers and indices to their samples
    elementwise.

    The scan reads each point's indices as a tree.  Its root cell spans
    indices 0 to S, the smallest power of _REFINE at or above the last
    index, and its two samples are index 0 and the last index.  Each level
    refines a kept cell's stride by _REFINE, sampling the _REFINE - 1
    indices inside it, down to stride 1.  An index past a scan's end
    evaluates its last index, so every cell of a level is one stride s
    wide, and its bounds below hold over the samples it really spans.  The
    trees run level by level together: their roots in chunks of
    _BUDGET // 2 points, each chunk to its last level before the next.  A
    level that would take more than _BUDGET samples is split into two
    halves of its cells, and the first half runs to its last level before
    the second.  So the memory of a scan's levels is set by _BUDGET,
    whatever the number of points.

    A cell is dropped, unsampled, when its bound plus a rounding slack stays
    below the best sample seen at its point as its level is folded (only
    kept cells are made), or as the second half of a split level runs; a
    non-finite best or bound drops nothing.  The bound is the smaller of
    (v_a + v_b)/2 + lip_step*s/2 (Piyavskii-Shubert) and max(v_a, v_b) +
    curv_step*s^2/8 (curv_step a scalar or one value per point).  The slack
    is 1e-12*(1 + |best| + scale[p]), where |best| + scale[p] bounds the
    magnitude of every quantity in one sample's evaluation: rounding errs by
    a few ulps of it, and 1e-12 is ~4500 ulps.  A dropped cell holds only
    samples strictly below the maximum, so the result is that of the full
    scan, bit for bit (the samples are computed as it computes them), when
    for each point

    * sample(p, .) changes by at most lip_step per unit step of j, and
    * either its second differences are at least -curv_step (then the
      second-order bound holds in every cell; an upper bound on them gives
      none), or, for any curv_step >= 0, its samples rise to their maximum
      and then fall (up to rounding): then the cell that holds the maximum
      has an end at or above every sample outside it, so its bound reaches
      the best sample seen.

    Neither argument depends on the refinement ratio, nor on the order in
    which cells are refined.  Each level's samples (the roots' among them)
    are folded into a running (v_k, k) per point by np.argmax's rule, so
    the result is np.argmax's over every sample taken: the first index of
    the largest, a nan winning (after which nothing of its point is
    dropped).  The best sample seen is that running v_k.
    """
    curv_step = np.broadcast_to(curv_step, count.shape)
    v_k = np.full(count.size, -math.inf)
    k = np.full(count.size, np.iinfo(np.int64).max)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = 1e-12 * (1.0 + np.abs(v_k) + scale)
    # one tree per point with samples: its point, last index and root
    # stride, the smallest power of _REFINE at or above the last index
    t_p = np.flatnonzero(count > 0)
    t_hi = count[t_p] - 1
    t_s = np.ones_like(t_hi)
    while (short := t_s < t_hi).any():
        t_s[short] *= _REFINE

    def fold(p: np.ndarray, j: np.ndarray, v: np.ndarray) -> None:
        # only a sample at or above its point's v_k, or a nan, can win
        up = np.flatnonzero(~(v < v_k[p]))
        if not up.size:
            return
        # a level's samples come point by point, in increasing point order,
        # and by non-decreasing index, so a point's first sample at the top
        # of its samples and v_k (nan if any is) is np.argmax's candidate
        p, j, v = p[up], j[up], v[up]
        q = p - p[0]
        top = v_k[p[0] : p[-1] + 1].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            np.maximum.at(top, q, v)
            hit = np.flatnonzero((v == top[q]) | np.isnan(v))
            at = hit[q[hit] != np.concatenate(([-1], q[hit[:-1]]))]
            pts, v_at, k_at = p[at], v[at], j[at]
            v_run, k_run = v_k[pts], k[pts]
            win = np.where(
                np.isnan(v_run),
                np.isnan(v_at) & (k_at < k_run),
                np.isnan(v_at) | (v_at > v_run) | ((v_at == v_run) & (k_at < k_run)),
            )
            pts, v_at = pts[win], v_at[win]
            v_k[pts], k[pts] = v_at, k_at[win]
            slack[pts] = 1e-12 * (1.0 + np.abs(v_at) + scale[pts])

    def drop(p: np.ndarray, s: np.ndarray, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        # whether the cells of stride s from v_a to v_b at points p
        # (broadcast) stay below the best sample seen
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.minimum(0.5 * (va + vb) + 0.5 * lip_step * s, np.maximum(va, vb) + curv_step[p] * s * s / 8)
            return (bound + slack[p] < v_k[p]) & np.isfinite(bound)

    steps = np.arange(1, _REFINE)[:, None]
    for first in range(0, t_p.size, _BUDGET // 2):
        # the root cells of the next _BUDGET // 2 trees: index 0 and the last
        # index sampled and folded, and the roots kept at strides above 1
        p, hi, s = (a[first : first + _BUDGET // 2] for a in (t_p, t_hi, t_s))
        zero = np.zeros_like(hi)
        p_new, j = np.repeat(p, 2), np.stack([zero, hi], axis=1).ravel()
        v = sample(p_new, j)
        fold(p_new, j, v)
        vals = v.reshape(-1, 2).T
        keep = (s > 1) & ~drop(p, s, vals[0], vals[1])
        # kept cells, one column each: (point, last index of its tree,
        # stride, first index) and (v_a, v_b), and whether v_k may have risen
        todo = [(np.stack([p, hi, s, zero])[:, keep], vals[:, keep], False)]
        while todo:
            cells, vals, stale = todo.pop()
            if stale:
                keep = ~drop(cells[0], cells[2], vals[0], vals[1])
                cells, vals = cells[:, keep], vals[:, keep]
            size = cells.shape[1]
            if size > 1 and size * (_REFINE - 1) > _BUDGET:
                half = size // 2
                todo += [(cells[:, half:], vals[:, half:], True), (cells[:, :half], vals[:, :half], False)]
                continue
            if not size:
                continue
            # the _REFINE - 1 new indices inside each cell, cell by cell
            p, hi, s, a = cells
            s = s // _REFINE
            j = np.empty((size, _REFINE - 1), dtype=np.int64)
            j[...] = np.minimum(a + s * steps, hi).T
            p_new, j = np.repeat(p, _REFINE - 1), j.ravel()
            v = sample(p_new, j)
            fold(p_new, j, v)
            # each cell's samples v_a..v_b as a column, and of its _REFINE
            # subcells those the new stride leaves samples inside and whose
            # bound reaches the best sample, cell by cell
            row = np.empty((_REFINE + 1, size))
            row[0], row[1:-1], row[-1] = vals[0], v.reshape(size, -1).T, vals[1]
            keep = np.empty((size, _REFINE), dtype=bool)
            keep.T[...] = (s > 1) & ~drop(p, s, row[:-1], row[1:])
            cell, sub = np.divmod(np.flatnonzero(keep), _REFINE)
            if cell.size:
                cells = cells.take(cell, axis=1)
                cells[2] //= _REFINE
                cells[3] += cells[2] * sub
                todo.append((cells, np.take(row, sub * size + cell + [[0], [size]]), False))
    return k, v_k


def mw_envelopes(
    point: tuple,
    problem: AdmissibleProblem,
    spec: GridSpec,
) -> tuple:
    """(low, high) Lipschitz envelopes of the strip boundary data at every
    point of the broadcast (x, d) arrays; numpy scalars for a scalar point.

    low  = max over sampled boundary points q of g(q) - L*|point - q|,
    high = min over sampled boundary points q of g(q) + L*|point - q|,
    with g = f on the bottom line and the closed-form u on the top line.
    Sampling and truncation only widen the bracket, so low <= u <= high
    holds pointwise; the bracket tightens at rate (L_f + L) * h_y.

    Points must lie strictly inside the strip and inside
    spec.trimmed_window(problem), whose margin band anchors the cones.  The
    scan size and then every point are checked before any scan; the first
    bad point in C order is named.  The samples sit at np.arange's
    positions, each computed where a scan reads it: on the bottom line at
    y_j from xmin to xmax, on the top line at X(y_j) for contact points y_j
    from xmin - pad to xmax + pad, kept where X(y_j) lies in [xmin, xmax].
    X(y) = y - delta*phi(f'(y)) is increasing, so the kept indices are one
    run, found by search.  A top-line sample's u and X come from one f'(y)
    and one root sqrt(L^2 - f'(y)^2), from the helper that construction's
    u_at_contact and contact_inverse use, with their IEEE operations; the
    contact points are checked once, at the line's ends.

    Each line takes one _scan_argmax run over 2n points for n points: the
    first n maximize g - L*hypot(x - pos, height), the last n -g - L*hypot(
    x - pos, height), and high is minus their maximum, which is exact.
    With dy the spacing np.arange steps by, a bottom-line sample moves by
    at most (L_f + L)*dy per index.  Its height d lies below delta <
    delta_touch, so for either sign the samples rise to one maximum and
    fall, as in brute_force_u: that makes the scan exact with the
    second-order bound at curv_step = Lip(f')*dy^2 (a bound on +-f's
    bending that the cone's bending does not enter).

    On the top line a sample is s(y) = +-u_top(y) - L*hypot(x - X(y), h)
    at the height h = delta - d above the point, and u_top' = f'*X', so
    s'(y) = X'(y)*G(y) with G = +-f'(y) + c(x - X(y)) and c(w) =
    L*w/sqrt(w^2 + h^2).  X' = 1 - delta*phi'(f')*f'' lies in [1 - q,
    1 + q], so a sample moves by at most (L_f + L)*(1 + q)*dy per index.
    The second-order bound comes from the shape of s.  c(x - X(y)) falls
    as y grows, so the y where |c| <= L_f form one interval; before it c >
    L_f >= |f'| and G > 0, after it G < 0.  Inside it c' = 1/(h*phi'(c))
    >= 1/(h*phi'(L_f)), so dG/dy <= Lip(f') - (1 - q)/(h*phi'(L_f)), which
    is negative when q_h + q < 1 with q_h = h*phi'(L_f)*Lip(f'), that is
    h < delta_banach - delta.  Then G changes sign at most once, from + to
    -, and the samples rise to one maximum and fall, so the scan is exact
    at curv_step = 0 (see _scan_argmax).  Points past the condition keep
    curv_step = inf, the first-order bound alone: there the samples may
    have several local maxima.  The condition is decided in exact
    arithmetic on the height the samples use (_rise_and_fall_height), so
    rounding cannot move a point to the curv_step = 0 side.
    """
    delta = problem.delta
    L = problem.L
    lip = problem.L_f + L
    q = problem.contraction_q
    spline = problem.spline
    h = spec.h_y
    lo, hi = spec.trimmed_window(problem)
    # top line sampled through the contact parameterization; dx/dy is within
    # [1-q, 1+q] of 1, so a y-step of h/(1+q) keeps the x-spacing below h
    ystep = h / (1.0 + q)
    pad = problem.D * delta + h
    samples = (spec.xmax - spec.xmin + 2.0 * pad) / ystep + 1.0
    if not samples <= MAX_SCAN:
        raise ConfigurationError(_scan_message(samples, "envelope scan"))

    x, d = (np.asarray(a, dtype=float) for a in point)
    # in the order of a one-point call: strip, trimmed window
    construction.raise_first_bad_point({"x": x, "d": d}, (
        (~((0.0 < d) & (d < delta)), DomainError,
         lambda i, p: f"point must lie strictly inside the strip, got d={p['d']!r}"),
        (~((lo <= x) & (x <= hi)), DomainError,
         lambda i, p: f"point x={p['x']!r} outside the margin-trimmed window [{lo!r}, {hi!r}]"),
    ))
    x, d = np.broadcast_arrays(x, d)
    xs, ds = x.ravel(), d.ravel()

    n0, step0, y0 = _arange(spec.xmin, spec.xmax + 0.5 * h, h)
    nt, stept, yt = _arange(spec.xmin - pad, spec.xmax + pad + 0.5 * ystep, ystep)
    # the contact points rise from the line's first to its last, so these
    # two stand for every one a search or a scan reads
    construction.require_strip_points(problem, yt(np.array([0, nt - 1])), delta, name="y")

    def contact(j: np.ndarray) -> tuple:
        # the contact points y = yt(j), the root u_at_contact divides by,
        # and X(y) as contact_inverse computes it
        y = yt(j)
        slope, root = construction._slope_and_root(y, problem)
        return y, root, y - delta * (slope / root)

    first = _first_past(lambda j: ~(contact(j)[2] < spec.xmin), 0, nt)
    last = _first_past(lambda j: spec.xmax < contact(j)[2], first, nt)

    def g_bottom(j: np.ndarray) -> tuple:
        y = y0(j)
        return spline.value(y), y

    def g_top(j: np.ndarray) -> tuple:
        y, root, pos = contact(first + j)
        return spline.value(y) - delta * L * L / root, pos

    # scan point i < n takes +g at flat point i, scan point n + i takes -g
    sign, x2 = np.repeat([1.0, -1.0], xs.size), np.tile(xs, 2)

    def line_max(count: int, g_pos, height: np.ndarray, lip_step: float, curv_step) -> np.ndarray:
        def sample(p: np.ndarray, j: np.ndarray) -> np.ndarray:
            g, pos = g_pos(j)
            return sign[p] * g - L * np.hypot(x2[p] - pos, height[p])

        return _scan_argmax(sample, np.full(x2.size, count), lip_step, curv_step, scale)[1]

    top_h = np.tile(delta - ds, 2)
    bottom = (n0, g_bottom, np.tile(ds, 2), lip * step0, spline.slope_lipschitz * step0 * step0)
    top_curv = np.where(top_h <= _rise_and_fall_height(problem), 0.0, math.inf)
    top = (last - first, g_top, top_h, lip * (1.0 + q) * stept, top_curv)
    # near the ends of the float range the samples overflow; a non-finite
    # envelope is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        # the magnitudes met in one sample's evaluation (see brute_force_u):
        # positions within reach of 0, the terms of f, the cone term
        reach = max(abs(spec.xmin), abs(spec.xmax)) + pad
        t_far = max(abs(spline.knots[0][0]), abs(spline.knots[-1][0]))
        scale = L * delta + lip * (np.abs(x2) + 2.0 * (reach + t_far))
        # every scan's root cells read both ends of its line.  A bottom
        # value g there that is not finite makes each point's low (g = +inf
        # or nan) or high (g = -inf or nan) not finite, whatever its cone
        # term, so the check below would name the first point: name it
        # before any scan.  The top line's ends prove nothing: a nan sample
        # there (inf - inf, when its cone term overflows too) drops out of
        # the max and min below
        if not np.isfinite(g_bottom(np.array([0, n0 - 1]))[0]).all():
            construction.require_finite_u(x, d, np.full(x.shape, math.nan))
        (low0, high0), (lowt, hight) = (line_max(*line).reshape(2, -1) for line in (bottom, top))
        high0, hight = -high0, -hight
    # max and min as the builtins pick them: the first argument unless the
    # second is strictly beyond it
    low = np.where(lowt > low0, lowt, low0).reshape(x.shape)
    high = np.where(hight < high0, hight, high0).reshape(x.shape)
    construction.require_finite_u(x, d, low, high)
    return low[()], high[()]


def _rise_and_fall_height(problem: AdmissibleProblem) -> float:
    """A height H such that every height h in (0, H] has q_h + q < 1, that
    is (h + delta)*phi'(L_f)*Lip(f') < 1, in exact arithmetic (H <= 0 if
    none is found, inf where Lip(f') = 0): the top-line condition of
    mw_envelopes.  The test (h + delta)*L^2*Lip(f') < (L^2 - L_f^2)^(3/2)
    is taken squared in rationals, from the float delta_banach - delta
    down by a relative step that doubles until it holds."""
    lip = problem.spline.slope_lipschitz
    if lip == 0.0:
        return math.inf
    L2 = Fraction(problem.L) ** 2
    room = (L2 - Fraction(problem.L_f) ** 2) ** 3

    def holds(h: float) -> bool:
        return ((Fraction(h) + Fraction(problem.delta)) * L2 * Fraction(lip)) ** 2 < room

    h, cut = min(problem.caps[1] - problem.delta, sys.float_info.max), 2.0**-52
    while h > 0.0 and not holds(h):
        h, cut = h - h * cut, 2.0 * cut
    return h


def _first_past(past: Callable[[np.ndarray], np.ndarray], lo: int, hi: int) -> int:
    """The first j in lo..hi-1 at which past(j) holds, hi if none, for past
    false up to some j and true from there (bisect's answer), probing up to
    _PROBES indices in one array per round."""
    while lo < hi:
        m = min(hi - lo, _PROBES)
        j = lo + np.arange(1, m + 1) * (hi - lo) // (m + 1)
        i = int(np.argmax(np.append(past(j), True)))
        lo, hi = (int(j[i - 1]) + 1 if i else lo), (int(j[i]) if i < m else hi)
    return lo


def _arange(start: float, stop: float, step: float) -> tuple:
    """(size, spacing, at) of np.arange(start, stop, step) without the
    array: np.arange takes ceil((stop - start)/step) elements, spaced by
    (start + step) - start rather than step, and at(j) computes its element
    j as it does, elementwise over integer j: start at j = 0 (a start of
    -0.0 keeps its sign), start + j*spacing past it."""
    spacing = (start + step) - start
    return max(math.ceil((stop - start) / step), 0), spacing, lambda j: np.where(j > 0, start + j * spacing, start)


def _scan_message(points: float, what: str) -> str:
    return f"{what} needs {points:.3g} boundary samples, more than {MAX_SCAN}; raise h_y"


def grid_eval(
    problem: AdmissibleProblem,
    spec: GridSpec,
    provenance: str = "closed_form",
    tol: float = construction.DEFAULT_TOL,
) -> FieldGrid:
    """Fill the grid with the selected evaluator; deterministic.  tol drives
    the closed-form contact solve, and is checked on every provenance."""
    construction.require_positive("tol", tol)
    if provenance not in PROVENANCES:
        raise ConfigurationError(f"unknown provenance {provenance!r}; expected one of {PROVENANCES}")
    if provenance in ("mw_min", "mw_max"):
        # the envelope evaluator is undefined on the boundary lines and
        # needs the margin band: trimmed window, heights strictly inside
        xs = np.linspace(*spec.trimmed_window(problem), spec.nx)
        ds = problem.delta * (np.arange(1, spec.nd + 1) / (spec.nd + 1))
    else:
        xs, ds = spec.xs(), spec.heights(problem.delta)
    if provenance == "closed_form":
        values = construction.u_interior(xs[:, None], ds[None, :], problem, tol=tol)
    elif provenance == "brute_force":
        values = brute_force_u((xs[:, None], ds[None, :]), problem, spec.h_y).value
    else:
        values = mw_envelopes((xs[:, None], ds[None, :]), problem, spec)[0 if provenance == "mw_min" else 1]
    return FieldGrid(spec=spec, provenance=provenance, xs=xs, ds=ds, values=values)


# -- exports -------------------------------------------------------------


def write_grid(path, grid: FieldGrid, fmt: str) -> None:
    """Write the "csv" or "structured" export of grid to path through
    ioutil.write_table: rows x-major, each distinct x and d formatted once."""
    xs, ds = format_reals(grid.xs), format_reals(grid.ds)

    def columns(first: int, last: int) -> list:
        i, j = np.divmod(np.arange(first, last), len(ds))
        return [xs[i], ds[j], grid.values[i, j]]

    spec = grid.spec
    meta = (("xmin", spec.xmin), ("xmax", spec.xmax), ("nx", spec.nx), ("nd", spec.nd))
    constants = (("provenance", grid.provenance),)
    write_table(path, fmt, "field_grid", ("x", "d", "u"), grid.values.size, columns, constants, meta)
