"""Independent brute-force evaluators used as ground truth.

Two oracles live here, both deliberately ignorant of the fixed-point
construction, and both find their extrema with one pruned scan,
_scan_argmax, whose result is that of a scan of every sample:

* direct maximization of the cone envelope over a fine boundary grid,
  refined by golden-section search (the objective is strictly concave on
  the admissible search window, so the refinement is rigorous).  The grid
  scan is pruned coarse to fine: the objective is (L_f + L)-Lipschitz in y
  and its second derivative is at most Lip(f') (the cone term is concave),
  so the Piyavskii-Shubert bound and a second-order bound drop every cell
  of the grid whose samples all lie strictly below the best sample seen.
  The scan therefore finds the same best sample as a scan of every grid
  point, bit for bit, using only those two exact constants of the data: no
  concavity of the objective, nothing from the construction;
* minimal/maximal Lipschitz envelopes of the strip boundary data, whose
  coincidence pins u from both sides: extrema over samples of the two
  boundary lines, computed where the scan reads them, with the same two
  bounds on the evenly spaced bottom line and a first-order bound from the
  y-spacing and q on the top line.

Grid fills and exports for both provenances are also defined here.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import construction
from .errors import ConfigurationError, DomainError, ValidationError
from .ioutil import REAL, write_table
from .params import AdmissibleProblem

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
# allocating; on vee at this cap `construct` peaks at 324 MB RSS (16.6 s)
# and a 2048x2048 closed-form `grid` at 268 MB (6.5 s), 2-core host
MAX_POINTS = 2**22

# the pruned scan of both oracles: stride refinement per level, and the
# fewest samples its first level takes.  Scans shorter than
# _REFINE*_MIN_COARSE = 64 samples start at stride 1, a full scan.  Measured
# on the 257x17 vee grid at h_y = 1e-6 (2-core host), samples including the
# refinement's: 8/8 takes ~0.5 M samples and ~0.1 s per grid, 16/16 ~0.85 M
# and ~0.12-0.16 s, 16/256 ~6.5 M and ~1.2-1.6 s; 4/4 and 8/4 time the same
# as 8/8 within the noise
_REFINE = 8
_MIN_COARSE = 8
# most points whose scans _scan_argmax runs together
_BLOCK = 256


@dataclass(frozen=True)
class GridSpec:
    """Sampling window on the strip plus the oracle step size."""

    xmin: float
    xmax: float
    nx: int
    nd: int
    h_y: float

    def __post_init__(self):
        if not (math.isfinite(self.xmin) and math.isfinite(self.xmax) and self.xmin < self.xmax):
            raise ValidationError(f"need finite xmin < xmax, got {self.xmin!r}, {self.xmax!r}")
        if self.nx < 2 or self.nd < 2:
            raise ValidationError(f"need nx, nd >= 2, got nx={self.nx!r}, nd={self.nd!r}")
        if not self.nx * self.nd <= MAX_POINTS:
            raise ConfigurationError(f"grid needs nx*nd = {self.nx * self.nd} points, more than {MAX_POINTS}")
        if not self.h_y > 0:
            raise ValidationError(f"need h_y > 0, got {self.h_y!r}")

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

    def heights(self, delta: float, provenance: str = "closed_form") -> np.ndarray:
        """Sample heights, top row at delta.  Envelope provenances shift
        strictly inside the strip (their evaluator is undefined on the
        boundary lines)."""
        if provenance in ("mw_min", "mw_max"):
            return delta * (np.arange(1, self.nd + 1) / (self.nd + 1))
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

    def __post_init__(self):
        if self.values.shape != (self.spec.nx, self.spec.nd):
            raise ValidationError(
                f"values shape {self.values.shape} != (nx, nd) = ({self.spec.nx}, {self.spec.nd})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("grid contains non-finite values")


@dataclass(frozen=True)
class _Scan:
    """What BruteResult.widened needs to go on from a brute_force_u result:
    the call's arguments and window factor, and per flat point the offset
    k - n of the best grid sample (its y is x + h_y*offset) and whether
    that sample lies strictly inside the window: then its refinement
    bracket, the grid samples at offsets offset - 1 and offset + 1, is the
    same at every wider window."""

    problem: AdmissibleProblem
    h_y: float
    window_factor: float
    x: np.ndarray
    d: np.ndarray
    offset: np.ndarray
    interior: np.ndarray


@dataclass(frozen=True)
class BruteResult:
    value: float
    argmax_y: float
    bound: float
    _scan: _Scan = field(repr=False, compare=False)

    def widened(self, window_factor: float) -> BruteResult:
        """The result over the same points, problem and h_y with the window
        |y - x| <= window_factor*D*d + h_y; window_factor is finite and at
        least this result's (1 for brute_force_u's).

        The result is that of a scan of the whole wider window, which holds
        every grid position of this one.  The scan goes on from this result:
        each point's scan starts at this result's best sample, which only
        prunes more.  Where a point's best sample is this result's and lies
        inside this result's window, its bracket comes out bit-equal to this
        result's, and the refinement, a function of (x, d, bracket,
        problem), would repeat this one's, so the point keeps this result's
        value and argmax_y.
        """
        scan = self._scan
        if not (math.isfinite(window_factor) and window_factor >= scan.window_factor):
            raise DomainError(f"need a finite window_factor >= {scan.window_factor!r}, got {window_factor!r}")
        return _brute_force(scan.x, scan.d, scan.problem, scan.h_y, window_factor, self)


def golden_section_max(fn: Callable[[np.ndarray], np.ndarray], lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Maximize a unimodal fn on every bracket [lo, hi] of the broadcast
    arrays; returns (arg, value) arrays of that shape.

    fn maps an array of that shape to its values elementwise.  Each bracket
    stops on its own once b - a <= _GOLDEN_TOL (at most _GOLDEN_MAX_ITER
    steps); later steps leave it unchanged.  Tracks the best evaluation
    seen, so the result never falls below any probed point even if
    unimodality is marginal at the bracket edges.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    first = fc >= fd
    best_y, best_v = np.where(first, c, d), np.where(first, fc, fd)
    for _ in range(_GOLDEN_MAX_ITER):
        active = ~(b - a <= _GOLDEN_TOL)
        if not active.any():
            break
        # left: the maximum lies in [a, d]; the new probe is c.  right: in [c, b]
        left = active & (fc >= fd)
        right = active & ~left
        a = np.where(right, c, a)
        b = np.where(left, d, b)
        c, fc, d, fd = (
            np.where(right, d, c),
            np.where(right, fd, fc),
            np.where(left, c, d),
            np.where(left, fc, fd),
        )
        probe = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fp = fn(probe)
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
        better = active & (fp > best_v)
        best_y, best_v = np.where(better, probe, best_y), np.where(better, fp, best_v)
    mid = 0.5 * (a + b)
    fmid = fn(mid)
    better = fmid > best_v
    return np.where(better, mid, best_y), np.where(better, fmid, best_v)


def brute_force_u(point: tuple, problem: AdmissibleProblem, h_y: float) -> BruteResult:
    """Maximize f(y) - L*sqrt(d^2 + (x-y)^2) by grid scan plus refinement
    at every point of the broadcast (x, d) arrays; value and argmax_y are
    arrays of that shape, numpy scalars for a scalar point.

    The scan grid of a point is y_j = x + h_y*(j - n), j = 0..2n, covering
    the window |y - x| <= D*d + h_y (BruteResult.widened scans a wider
    one).  The objective is (L_f + L)-Lipschitz in y, and its second
    derivative is at most Lip(f') (the cone term is concave), so
    _scan_argmax skips every stretch of the grid whose bound from those two
    constants lies below the best sample seen: each skipped sample is
    strictly below the maximum, and the index found is the one np.argmax
    over all samples returns.  All points of a call go to one _scan_argmax.
    Golden-section refinement then runs on the brackets around those
    samples, all points at once.  bound is the worst-case scan error before
    refinement, from the Lipschitz constant.

    Every point is checked before any scan starts; the first bad point in
    C order is named in the error.
    """
    x, d = (np.array(a, dtype=float) for a in np.broadcast_arrays(*point))
    return _brute_force(x, d, problem, h_y, 1.0, None)


def _brute_force(
    x: np.ndarray,
    d: np.ndarray,
    problem: AdmissibleProblem,
    h_y: float,
    window_factor: float,
    narrow: BruteResult | None,
) -> BruteResult:
    """brute_force_u at window_factor, going on from narrow, a result over
    the same points at a window factor no larger (None: a fresh scan)."""
    spline = problem.spline
    L = problem.L
    lip = problem.L_f + L
    t_far = max(abs(spline.knots[0][0]), abs(spline.knots[-1][0]))
    radius = window_factor * problem.D * d + h_y
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scan_size = 2.0 * radius / h_y + 1.0
    _raise_first_bad_point(
        x,
        d,
        (
            (~np.isfinite(x), DomainError, lambda i: f"need finite x, got {x.flat[i].item()!r}"),
            (
                ~((0.0 < d) & (d <= problem.delta)),
                DomainError,
                lambda i: f"height must lie in (0, delta], got {d.flat[i].item()!r}",
            ),
            (np.full(x.shape, h_y <= 0), DomainError, lambda i: f"need h_y > 0, got {h_y!r}"),
            (
                ~(scan_size <= MAX_SCAN),
                ConfigurationError,
                lambda i: _scan_message(scan_size.flat[i].item(), "brute-force scan"),
            ),
        ),
    )
    xs, ds, radius = x.ravel(), d.ravel(), radius.ravel()
    n = np.ceil(radius / h_y).astype(np.int64)
    # |best| + scale bounds the magnitude of every quantity met in
    # evaluating one sample (positions, the terms of f, the cone term);
    # the pruning slack of _scan_argmax is sized on it.  Near the top of the
    # float range it is inf, which prunes nothing
    with np.errstate(over="ignore"):
        scale = L * ds + lip * (np.abs(xs) + radius + t_far)

    def sample(p: np.ndarray, j: np.ndarray) -> np.ndarray:
        ys = xs[p] + h_y * (j - n[p])
        dp = ds[p]
        return spline.value(ys) - L * np.sqrt(dp * dp + (xs[p] - ys) ** 2)

    start = 0 if narrow is None else narrow._scan.offset + n
    # near the ends of the float range the samples, the brackets and the
    # objective overflow; a non-finite result is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        k, v_k = _scan_argmax(sample, 2 * n + 1, lip * h_y, spline.slope_lipschitz * h_y * h_y, scale, start)
        offset = k - n
        lo, y_k, hi = (xs + h_y * (j - n) for j in (np.maximum(k - 1, 0), k, np.minimum(k + 1, 2 * n)))
        y_star, v_star = np.empty_like(y_k), np.empty_like(v_k)
        redo = np.ones(xs.size, dtype=bool)
        if narrow is not None:
            # narrow's refinement stands where it ran on the same bracket
            # around the same sample
            scan = narrow._scan
            redo = ~((offset == scan.offset) & scan.interior)
            y_star[~redo], v_star[~redo] = np.ravel(narrow.argmax_y)[~redo], np.ravel(narrow.value)[~redo]
        x_r, d_r = xs[redo], ds[redo]
        y_new, v_new = golden_section_max(
            lambda y: spline.value(y) - L * construction._libm(math.hypot, d_r, x_r - y), lo[redo], hi[redo]
        )
    worse = v_new < v_k[redo]
    y_star[redo], v_star[redo] = np.where(worse, y_k[redo], y_new), np.where(worse, v_k[redo], v_new)
    y_star, v_star = y_star.reshape(x.shape), v_star.reshape(x.shape)
    _raise_first_bad_point(x, d, (
        (~np.isfinite(v_star), DomainError, lambda i: f"u overflows the float range at x = {x.flat[i].item()!r}"),
    ))
    return BruteResult(
        value=v_star[()],
        argmax_y=y_star[()],
        bound=0.5 * lip * h_y,
        _scan=_Scan(problem, h_y, window_factor, x, d, offset, (0 < k) & (k < 2 * n)),
    )


def _raise_first_bad_point(x: np.ndarray, d: np.ndarray, checks: tuple) -> None:
    """checks holds (bad, error, message) per condition, in the order a
    point is checked: bad is a mask over the points and message(i) the text
    for flat point i.  Raises for the first bad point in C order, naming it,
    with the first of its checks that fails."""
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])
    if not bad.any():
        return
    i = int(np.flatnonzero(bad)[0])
    _, error, message = next(check for check in checks if check[0].flat[i])
    raise error(f"at grid point (x={x.flat[i].item()!r}, d={d.flat[i].item()!r}): {message(i)}")


def _scan_argmax(
    sample: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: np.ndarray,
    lip_step: float,
    curv_step: float,
    scale: np.ndarray,
    start: np.ndarray | int,
) -> tuple[np.ndarray, np.ndarray]:
    """(k, v_k) per point p: the first index of the largest of sample(p, j),
    j = 0..count[p]-1, which is what np.argmax over that point's full scan
    returns, without evaluating most of the scan; v_k is -inf at count 0.
    sample maps arrays of point numbers and indices to their samples
    elementwise.  start holds one index per point in [0, count[p]-1]
    (broadcast; 0 for a fresh scan), whose sample the first level also
    takes: a start near the maximum only prunes more, and the result is
    the same for any start.

    sample(p, .) must change by at most lip_step per unit step of j, and
    its second derivative in j must be at most curv_step (inf: no
    second-order bound).  The points run in blocks of at most _BLOCK.  The
    scan of each point runs as a tree, all trees of a block level by level
    together: it starts at a coarse stride and refines by _REFINE per
    level.  An index past the end evaluates sample(p, count[p]-1), which
    keeps the extended scan lip_step-Lipschitz with the same first argmax,
    so every cell of a level is one stride s wide.  Inside a cell every
    sample is at most (v_a + v_b)/2 + lip_step*s/2 (Piyavskii-Shubert) and
    at most max(v_a, v_b) + curv_step*s^2/8 (the second-order bound; the
    padded samples equal v_b, so it holds for a cell past the end too).  A
    cell whose smaller bound plus a rounding slack stays below the best
    value seen at its point holds only samples strictly below the maximum
    and is dropped.  The slack is 1e-12*(1 + |best| + scale[p]), where
    |best| + scale[p] bounds the magnitude of every quantity in one sample's
    evaluation: rounding errs by a few ulps of it, and 1e-12 is ~4500 ulps.
    A non-finite best or bound prunes nothing.  Only the two constants
    enter: no concavity of the objective and nothing from the construction.
    Samples are computed exactly as a full scan computes them, so the
    result is that scan's, bit for bit.  Short scans start at stride 1,
    which is the full scan.

    best follows the rules of the one-point scan: the first level's maximum,
    start sample included (a nan propagates), then raised by each later
    level's maximum when that is larger.  The start sample is a real
    sample, so the cells dropped still lie strictly below the maximum.  The
    index returned is np.argmax's over every sample taken, so a nan sample
    wins.
    """
    start = np.broadcast_to(start, count.shape)
    if count.size > _BLOCK:
        # one block of points at a time, which keeps peak memory flat
        blocks = (slice(first, first + _BLOCK) for first in range(0, count.size, _BLOCK))
        parts = [
            _scan_argmax(lambda p, j, b=b: sample(b.start + p, j), count[b], lip_step, curv_step, scale[b], start[b])
            for b in blocks
        ]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    points = count.size
    last = count - 1
    stride = np.ones(points, dtype=np.int64)
    grow = stride * _REFINE * _MIN_COARSE <= count
    while grow.any():
        stride[grow] *= _REFINE
        grow = stride * _REFINE * _MIN_COARSE <= count
    # first level: j = 0, stride, ..., up to the first multiple at or past last
    width = -(-last // stride) + 1
    p = np.repeat(np.arange(points), width)
    j = (np.arange(p.size) - np.repeat(np.cumsum(width) - width, width)) * stride[p]
    j = np.minimum(j, last[p])
    # the start samples the first level does not take already, evaluated
    # with it and after it, outside its cells
    extra = np.flatnonzero((start % stride != 0) & (start != last))
    p0, j0 = np.concatenate([p, extra]), np.concatenate([j, start[extra]])
    v0 = sample(p0, j0)
    seen = [(p0, j0, v0)]
    best = np.full(points, -math.inf)
    np.maximum.at(best, p0, v0)
    v = v0[: p.size]
    # the cells between consecutive samples of one point, at strides above 1;
    # clipping moved only a point's last sample, which starts no cell
    cell = (p[:-1] == p[1:]) & (stride[p[:-1]] > 1)
    cp, s, a, va, vb = p[:-1][cell], stride[p[:-1]][cell], j[:-1][cell], v[:-1][cell], v[1:][cell]
    steps = np.arange(_REFINE)
    while cp.size:
        with np.errstate(over="ignore", invalid="ignore"):
            slack = 1e-12 * (1.0 + np.abs(best) + scale)
            bound = np.minimum(0.5 * (va + vb) + 0.5 * lip_step * s, np.maximum(va, vb) + curv_step * s * s / 8)
            keep = ~((bound + slack[cp] < best[cp]) & np.isfinite(bound))
        cp, s, a, va, vb = cp[keep], s[keep] // _REFINE, a[keep], va[keep], vb[keep]
        # the _REFINE - 1 new indices inside each kept cell
        j = a[:, None] + s[:, None] * steps[1:]
        p = np.repeat(cp, _REFINE - 1)
        j_in = np.minimum(j.ravel(), last[p])
        v = sample(p, j_in)
        seen.append((p, j_in, v))
        level = np.full(points, -math.inf)
        np.maximum.at(level, p, v)
        best = np.where(level > best, level, best)
        pv = np.column_stack([va, v.reshape(j.shape), vb])
        a = (a[:, None] + s[:, None] * steps).ravel()
        cp, s, va, vb = np.repeat(cp, _REFINE), np.repeat(s, _REFINE), pv[:, :-1].ravel(), pv[:, 1:].ravel()
        coarse = s > 1
        cp, s, a, va, vb = cp[coarse], s[coarse], a[coarse], va[coarse], vb[coarse]
    p, j, v = (np.concatenate(arrays) for arrays in zip(*seen))
    top = np.full(points, -math.inf)
    np.maximum.at(top, p, v)
    hit = (v == top[p]) | np.isnan(v)
    k = np.full(points, np.iinfo(np.int64).max)
    np.minimum.at(k, p[hit], j[hit])
    # repeated samples of one index are equal, so v_k is well defined
    first = hit & (j == k[p])
    v_k = np.full(points, -math.inf)
    v_k[p[first]] = v[first]
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
    y_j from xmin to xmax, on the top line at x(y_j) for contact points y_j
    from xmin - pad to xmax + pad, kept where x(y_j) lies in [xmin, xmax].
    x(y) is increasing, so the kept indices are one run, found by bisection.
    Each line takes two _scan_argmax runs, of +-g - L*hypot(x - pos,
    height); high is minus the second maximum, which is exact.  With dy the
    spacing np.arange steps by, a bottom-line sample moves by at most
    (L_f + L)*dy per index and bends by at most Lip(f')*dy^2 for either sign
    (the cone term is concave).  On the top line |dx/dy| <= 1 + q and
    dg/dy = f'(y)*dx/dy, so a sample moves by at most (L_f + L)*(1 + q)*dy;
    its x-spacing is uneven, so that line gets only this first-order bound.
    """
    delta = problem.delta
    L = problem.L
    lip = problem.L_f + L
    q = problem.contraction_q
    h = spec.h_y
    lo, hi = spec.trimmed_window(problem)
    # top line sampled through the contact parameterization; dx/dy is within
    # [1-q, 1+q] of 1, so a y-step of h/(1+q) keeps the x-spacing below h
    ystep = h / (1.0 + q)
    pad = problem.D * delta + h
    samples = (spec.xmax - spec.xmin + 2.0 * pad) / ystep + 1.0
    if not samples <= MAX_SCAN:
        raise ConfigurationError(_scan_message(samples, "envelope scan"))

    x, d = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(*point))
    # in the order of a one-point call: strip, trimmed window
    _raise_first_bad_point(x, d, (
        (~((0.0 < d) & (d < delta)), DomainError,
         lambda i: f"point must lie strictly inside the strip, got d={d.flat[i].item()!r}"),
        (~((lo <= x) & (x <= hi)), DomainError,
         lambda i: f"point x={x.flat[i].item()!r} outside the margin-trimmed window [{lo!r}, {hi!r}]"),
    ))
    xs, ds = x.ravel(), d.ravel()
    # the magnitudes met in one sample's evaluation (see brute_force_u):
    # positions within reach of 0, the terms of f, the cone term
    reach = max(abs(spec.xmin), abs(spec.xmax)) + pad
    t_far = max(abs(problem.spline.knots[0][0]), abs(problem.spline.knots[-1][0]))
    scale = L * delta + lip * (np.abs(xs) + 2.0 * (reach + t_far))

    n0, step0, y0 = _arange(spec.xmin, spec.xmax + 0.5 * h, h)
    nt, stept, yt = _arange(spec.xmin - pad, spec.xmax + pad + 0.5 * ystep, ystep)

    def x_top(j):
        return construction.contact_inverse(yt(j), delta, problem)

    first = bisect.bisect_left(range(nt), spec.xmin, key=x_top)
    last = bisect.bisect_right(range(nt), spec.xmax, first, key=x_top)

    def g_bottom(j: np.ndarray) -> tuple:
        y = y0(j)
        return problem.spline.value(y), y

    def g_top(j: np.ndarray) -> tuple:
        return construction.u_at_contact(yt(first + j), problem), x_top(first + j)

    def line_max(sign: float, count: int, g_pos, height: np.ndarray, lip_step: float, curv_step: float):
        def sample(p: np.ndarray, j: np.ndarray) -> np.ndarray:
            g, pos = g_pos(j)
            return sign * g - L * np.hypot(xs[p] - pos, height[p])

        return _scan_argmax(sample, np.full(xs.size, count), lip_step, curv_step, scale, 0)[1]

    bottom = (n0, g_bottom, ds, lip * step0, problem.spline.slope_lipschitz * step0 * step0)
    top = (last - first, g_top, delta - ds, lip * (1.0 + q) * stept, math.inf)
    low0, lowt = line_max(1.0, *bottom), line_max(1.0, *top)
    high0, hight = -line_max(-1.0, *bottom), -line_max(-1.0, *top)
    # max and min as the builtins pick them: the first argument unless the
    # second is strictly beyond it
    low = np.where(lowt > low0, lowt, low0).reshape(x.shape)
    high = np.where(hight < high0, hight, high0).reshape(x.shape)
    return low[()], high[()]


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
    the closed-form contact solve."""
    if provenance not in PROVENANCES:
        raise ConfigurationError(f"unknown provenance {provenance!r}; expected one of {PROVENANCES}")
    if provenance in ("mw_min", "mw_max"):
        xs = np.linspace(*spec.trimmed_window(problem), spec.nx)
    else:
        xs = spec.xs()
    ds = spec.heights(problem.delta, provenance)
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
    xs, ds = (np.array([REAL % v for v in a.tolist()], dtype=object) for a in (grid.xs, grid.ds))

    def columns(first: int, last: int) -> list:
        i, j = np.divmod(np.arange(first, last), ds.size)
        return [xs[i], ds[j], grid.values[i, j]]

    spec = grid.spec
    meta = (("xmin", spec.xmin), ("xmax", spec.xmax), ("nx", spec.nx), ("nd", spec.nd))
    row = (("x", "%s"), ("d", "%s"), ("u", REAL))
    write_table(path, fmt, "field_grid", row, grid.values.size, columns, (("provenance", grid.provenance),), meta)
