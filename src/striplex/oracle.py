"""Independent evaluators of u used as ground truth.

Two oracles live here, both deliberately ignorant of the fixed-point
contact solve:

* direct maximization of the cone envelope g(y) = f(y) - L*sqrt(d^2 +
  (x-y)^2) over a fine boundary grid, refined by golden-section search on
  the bracket around the best sample.  One pruned scan, _scan_argmax,
  whose result is that of a scan of every sample, reads the grid coarse
  to fine, from one root cell per point that spans the point's whole grid:
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
  comes from the construction, nor any assumption on f beyond its
  constants;
* minimal/maximal Lipschitz (McShane-Whitney) envelopes of the strip
  boundary data, whose coincidence pins u from both sides: each is an
  extremum over the two boundary lines of terms whose critical points
  are the roots of y - x = k*phi(f'(y)), one signed height k per term.
  mw_envelopes evaluates the terms at every root _contact_roots finds, so
  it is exact up to rounding; it leans on f being piecewise quadratic and
  on the top line's X' >= 1 - q > 0, where the scan leans on neither.

Grid fills and exports for all four provenances are also defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import construction
from .errors import ConfigurationError, DomainError, NonConvergenceError, ValidationError
from .ioutil import format_reals, write_table
from .params import AdmissibleProblem, ProblemParams

PROVENANCES = ("closed_form", "brute_force", "mw_min", "mw_max")

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement: bracket width at which a bracket stops, and
# the most steps it takes
_GOLDEN_TOL = 1e-13
_GOLDEN_MAX_ITER = 90

# most boundary samples one brute-force scan may range over, and most
# (point, piece) pairs one envelope call may solve, checked before any scan or
# solve starts; neither is held in one array, so it bounds time.  At the CLI
# defaults the 2x scan on vee at --delta-frac 0.9 ranges over ~5.3e6 samples,
# and a 257x17 envelope grid takes ~1.8e4 to ~3.5e4 pairs
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
# 24.4 and 27.9 ms of CPU, when it still re-read indices past a scan's end
# (201,529 at 4 without).  At ratio 4 the budget trades time for memory:
# brute_force_u over that grid's 2x window takes 26.2, 25.4, 24.4 and 23.9
# ms of CPU at 6144, 8192, 12288 and 16384 (medians of 30 alternating
# rounds in one process, 2-core host), with trace peaks of 1.6, 1.7, 1.8
# and 2.5 MB; 32768 was no faster and took 3.6 MB.  mw_envelopes solves its
# roots in blocks of about _BUDGET Newton seeds: on the default vee mw_min
# grid the trace peaks at 4.6 MB, against 12.6 MB with blocks 4x as large,
# in the same ~49 ms of CPU (medians of 15 alternating rounds)
_REFINE = 4
_BUDGET = 16384


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
    """Sampling window on the strip plus the brute-force oracle's scan
    step, which the envelope oracle does not use."""

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
        envelope grids and envelope_coincidence place their points.  The one
        place that sets the margin."""
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
        lambda i, p: "brute-force scan needs {:.3g} boundary samples, more than {}; raise h_y".format(
            np.broadcast_to(scan_size, np.broadcast(x, d).shape).flat[i].item(), MAX_SCAN
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
    stands for its last index, whose sample the root took and which is not
    sampled again, so every cell of a level is one stride s wide, and its
    bounds below hold over the samples it really spans.  The
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
            # the _REFINE - 1 new indices inside each cell, cell by cell; an
            # index at or past its scan's last, which the root sampled, is
            # not sampled again and reads the cell's v_b, that sample (such
            # indices come at a straddling cell's end, and most levels have
            # none)
            p, hi, s, a = cells
            s = s // _REFINE
            j = np.empty((size, _REFINE - 1), dtype=np.int64)
            j[...] = (a + s * steps).T
            p_new = np.repeat(p, _REFINE - 1)
            if (j[:, -1] < hi).all():
                j = j.ravel()
                v = sample(p_new, j)
                inner = v.reshape(size, -1)
            else:
                new = j < hi[:, None]
                p_new, j = p_new[new.ravel()], j[new]
                v = sample(p_new, j)
                inner = np.repeat(vals[1][:, None], _REFINE - 1, axis=1)
                inner[new] = v
            fold(p_new, j, v)
            # each cell's samples v_a..v_b as a column, and of its _REFINE
            # subcells those the new stride leaves samples inside and whose
            # bound reaches the best sample, cell by cell
            row = np.empty((_REFINE + 1, size))
            row[0], row[1:-1], row[-1] = vals[0], inner.T, vals[1]
            keep = np.empty((size, _REFINE), dtype=bool)
            keep.T[...] = (s > 1) & ~drop(p, s, row[:-1], row[1:])
            cell, sub = np.divmod(np.flatnonzero(keep), _REFINE)
            if cell.size:
                cells = cells.take(cell, axis=1)
                cells[2] //= _REFINE
                cells[3] += cells[2] * sub
                todo.append((cells, np.take(row, sub * size + cell + [[0], [size]]), False))
    return k, v_k


def mw_envelopes(point: tuple, problem: AdmissibleProblem) -> tuple:
    """(low, high) Lipschitz envelopes of the strip boundary data at every
    point of the broadcast (x, d) arrays; numpy scalars for a scalar point.

    low  = sup over boundary points q of g(q) - L*|point - q|,
    high = inf over boundary points q of g(q) + L*|point - q|,
    with g = f on the bottom line and the closed-form u on the top line:
    the minimal and maximal McShane-Whitney extensions of the boundary
    data, so low <= u <= high, and both equal u.

    Each is an extremum of two terms, one per line, and each extremum is a
    critical point: as L > L_f, the terms maximized tend to -inf as |y|
    grows, those minimized to +inf.  The top line is read by its contact
    points y, at X(y) = contact_inverse(y, delta) with u = u_at_contact(y);
    X' >= 1 - q > 0, so y runs over the whole line and a top term's slope
    in y is X' times its slope in X.  So each term's slope vanishes exactly
    where y - x = k*phi(f'(y)), phi(t) = t/sqrt(L^2 - t^2), at one signed
    height k per term:

        term           extremum  k
        bottom, low    max       d
        bottom, high   min       -d
        top, high      min       d
        top, low       max       2*delta - d

    Each term is evaluated at every root _contact_roots finds, so the
    envelopes are exact up to the rounding of those evaluations.  The
    trade-off: this oracle leans on f being piecewise quadratic, which
    every BoundarySpline is, and on X' >= 1 - q > 0, which admission gives;
    brute_force_u stays the oracle that needs neither.

    Points must have a finite x and lie strictly inside the strip, and the
    envelopes must be finite: DomainError names the first bad point.
    """
    delta, L = problem.delta, problem.L
    x, d = (np.asarray(a, dtype=float) for a in point)
    construction.require_strip_points(problem, x, d, (
        ~(d < delta), DomainError, lambda i, p: f"point must lie strictly inside the strip, got d={p['d']!r}",
    ))
    x, d = np.broadcast_arrays(x, d)
    n, dd = x.size, d.ravel()
    # the terms in the table's order: item j*n + i is point i of term j,
    # every extremum taken as a max (the terms minimized are negated)
    xs, sign = np.tile(x.ravel(), 4), np.repeat([1.0, -1.0, -1.0, 1.0], n)
    height = np.concatenate([dd, dd, delta - dd, delta - dd])
    best = np.full(4 * n, -math.inf)
    # far out the terms overflow; a non-finite envelope is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, y in _contact_roots(xs, np.concatenate([dd, -dd, dd, 2.0 * delta - dd]), problem):
            top = i >= 2 * n
            # the boundary point's value g and abscissa
            g, at = problem.spline.value(y), y.copy()
            g[top] = construction.u_at_contact(y[top], problem)
            at[top] = construction.contact_inverse(y[top], delta, problem)
            np.maximum.at(best, i, sign[i] * g - L * np.hypot(xs[i] - at, height[i]))
        low0, high0, hight, lowt = best.reshape(4, n)
        low, high = (v.reshape(x.shape) for v in (np.maximum(low0, lowt), -np.maximum(high0, hight)))
    construction.require_finite_u(x, d, low, high)
    return low[()], high[()]


def _contact_roots(x: np.ndarray, k: np.ndarray, problem: AdmissibleProblem):
    """Yield (i, y) block by block: the roots y of y - x[i] = k[i]*phi(f'(y))
    over the 1-D arrays x and k, each with the index i of its point; a root
    may come twice.

    As |phi(f')| <= phi(L_f), every root lies within reach = |k|*phi(L_f)
    of x, so only the piece-table rows that meet that reach are read.  The
    (point, row) pairs are counted first, and more than MAX_SCAN raise
    ConfigurationError before any is solved.  Blocks of about _BUDGET // 4
    pairs, cut between points, then seed about _BUDGET Newton runs each, so
    memory does not grow with the number of points.

    On a row with f'' = c = 0, a tail or a flat piece of slope s, the root
    is y = x + k*phi(s).  On a curved row, S = f'(y) = alpha + c*(y - x),
    alpha the row's slope extended to x, and squaring S - alpha = c*k*phi(S)
    gives the monic quartic

        (S - alpha)^2 (L^2 - S^2) - c^2 k^2 S^2 = 0,

    solved in S/L, where its coefficients stay finite for any L, by the
    eigenvalues of batched 4x4 companion matrices.  All four real parts
    seed y = x + (S - alpha)/c, with no cut-off on the imaginary part, so a
    near-double root at a fold, which rounding can split into a complex
    pair, still seeds.  Each seed (x itself on a flat row) takes three
    Newton steps on the unsquared equation F(y) = y - x - k*phi(f'(y)),
    each clipped to its row, and is kept where |F| <= 1e-12*(|x| + reach),
    ~4500 ulps of the quantities met: this drops the roots of S - alpha =
    -c*k*phi(S) that squaring adds.  A quartic with a non-finite
    coefficient raises DomainError naming the point, and eigenvalues that
    do not converge raise NonConvergenceError.
    """
    table = problem.spline._table
    L, L_f = problem.L, problem.L_f
    # far out these overflow; the checks below catch every such value
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reach = np.abs(k) * (L_f / math.sqrt(L * L - L_f * L_f))
        first = np.searchsorted(table.keys, x - reach, side="right")
        count = np.searchsorted(table.keys, x + reach, side="right") - first + 1
    ends = np.cumsum(count)
    pairs = int(ends[-1]) if x.size else 0
    if not pairs <= MAX_SCAN:
        raise ConfigurationError(f"envelope roots need {pairs} (point, piece) pairs, more than {MAX_SCAN}")
    cuts = np.unique(np.searchsorted(ends, np.arange(_BUDGET // 4, pairs, _BUDGET // 4)))
    edges = np.concatenate([[-math.inf], table.t[1:], [math.inf]])
    for block in map(slice, [0, *cuts], [*cuts, x.size]):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            i = np.repeat(np.arange(x.size)[block], count[block])
            row = np.arange(i.size) - np.repeat(np.cumsum(count[block]) - count[block] - first[block], count[block])
            xp, kp, rp, c, t, s = x[i], k[i], reach[i], table.c[row], table.t[row], table.s[row]
            lo, hi = edges[row], edges[row + 1]
            curved = np.flatnonzero(c)
            xc, kc, cc = xp[curved], kp[curved], c[curved]
            alpha = s[curved] + cc * (xc - t[curved])
            a, m = alpha / L, cc * kc / L
            coef = np.stack([-2.0 * a, a * a - 1.0 + m * m, 2.0 * a, -a * a], axis=1)
            construction.raise_first_bad_point({"x": xc, "k": kc}, (
                (~np.isfinite(coef).all(axis=1), DomainError, lambda j, p: "the contact-root quartic overflows"),
            ))
            companion = np.tile(np.eye(4, k=-1), (curved.size, 1, 1))
            companion[:, 0] = -coef
            try:
                S = L * np.linalg.eigvals(companion).real
            except np.linalg.LinAlgError:
                raise NonConvergenceError("the contact-root quartic's eigenvalues did not converge") from None
            pair = np.concatenate([np.arange(i.size), np.repeat(curved, 4)])
            y = np.concatenate([xp, (xc[:, None] + (S - alpha[:, None]) / cc[:, None]).ravel()])
            xp, kp, rp, c, t, s, lo, hi = (v[pair] for v in (xp, kp, rp, c, t, s, lo, hi))

            def residual(y: np.ndarray) -> tuple:
                slope = s + c * (y - t)
                root = np.sqrt(L * L - slope * slope)
                return y - xp - kp * (slope / root), root

            y = np.clip(y, lo, hi)
            for _ in range(3):
                F, root = residual(y)
                step = F / (1.0 - kp * c * (L * L / (root * root * root)))
                y = np.clip(np.where(np.isfinite(step), y - step, y), lo, hi)
            keep = np.flatnonzero(np.abs(residual(y)[0]) <= 1e-12 * (np.abs(xp) + rp))
        yield i[pair[keep]], y[keep]


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
        values = mw_envelopes((xs[:, None], ds[None, :]), problem)[0 if provenance == "mw_min" else 1]
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
