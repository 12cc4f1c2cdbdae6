"""Independent brute-force evaluators used as ground truth.

Two oracles live here, both deliberately ignorant of the fixed-point
construction:

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
  coincidence pins u from both sides.

Grid fills and exports for both provenances are also defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import construction
from .errors import ConfigurationError, DomainError, StriplexError, ValidationError
from .ioutil import REAL, fmt_real, fmt_rows
from .params import AdmissibleProblem

PROVENANCES = ("closed_form", "brute_force", "mw_min", "mw_max")

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement: bracket width at which a bracket stops, and
# the most steps it takes
_GOLDEN_TOL = 1e-13
_GOLDEN_MAX_ITER = 90

# most boundary samples one oracle scan may take, checked before allocating;
# the CLI defaults take at most ~4.2e6 (mw_envelopes at h_y = 1e-6 on [-2, 2])
MAX_SCAN = 10_000_000

# the pruned scan of brute_force_u: stride refinement per level, and the
# fewest samples its first level takes.  Scans shorter than
# _REFINE*_MIN_COARSE = 64 samples start at stride 1, a full scan.  Measured
# on the 257x17 vee grid at h_y = 1e-6 (2-core host), samples including the
# refinement's: 8/8 takes ~0.5 M samples and ~0.1 s per grid, 16/16 ~0.85 M
# and ~0.12-0.16 s, 16/256 ~6.5 M and ~1.2-1.6 s; 4/4 and 8/4 time the same
# as 8/8 within the noise
_REFINE = 8
_MIN_COARSE = 8
# most points whose scans run together, which keeps peak memory flat
_BLOCK = 256


@dataclass(frozen=True)
class GridSpec:
    """Sampling window on the strip plus oracle step sizes."""

    xmin: float
    xmax: float
    nx: int
    nd: int
    h_y: float
    margin: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.xmin) and math.isfinite(self.xmax) and self.xmin < self.xmax):
            raise ValidationError(f"need finite xmin < xmax, got {self.xmin!r}, {self.xmax!r}")
        if self.nx < 2 or self.nd < 2:
            raise ValidationError(f"need nx, nd >= 2, got nx={self.nx!r}, nd={self.nd!r}")
        if not self.h_y > 0:
            raise ValidationError(f"need h_y > 0, got {self.h_y!r}")
        if self.margin < 0:
            raise ValidationError(f"need margin >= 0, got {self.margin!r}")

    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

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


class BruteResult(NamedTuple):
    value: float
    argmax_y: float
    bound: float


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


def brute_force_u(point: tuple, problem: AdmissibleProblem, h_y: float, window_factor: float = 1.0) -> BruteResult:
    """Maximize f(y) - L*sqrt(d^2 + (x-y)^2) by grid scan plus refinement
    at every point of the broadcast (x, d) arrays; value and argmax_y are
    arrays of that shape, numpy scalars for a scalar point.

    The scan grid of a point is y_j = x + h_y*(j - n), j = 0..2n, covering
    the window |y - x| <= window_factor*D*d + h_y.  The objective is
    (L_f + L)-Lipschitz in y, and its second derivative is at most Lip(f')
    (the cone term is concave), so _scan_argmax skips every stretch of the
    grid whose bound from those two constants lies below the best sample
    seen: each skipped sample is strictly below the maximum, and the index
    found is the one np.argmax over all samples returns.  The points of a
    call are scanned together, in blocks of at most _BLOCK.  Golden-section
    refinement then runs on the brackets around those samples, all points
    at once.  bound is the worst-case scan error before refinement, from
    the Lipschitz constant.

    Every point is checked before any scan starts; the first bad point in
    C order is named in the error.
    """
    spline = problem.spline
    L = problem.L
    lip = problem.L_f + L
    t_far = max(abs(spline.knots[0][0]), abs(spline.knots[-1][0]))
    x, d = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(*point))
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
    k, v_k = np.empty(xs.size, dtype=np.int64), np.empty(xs.size)
    for start in range(0, xs.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        xb, db, nb = xs[block], ds[block], n[block]

        def sample(p: np.ndarray, j: np.ndarray) -> np.ndarray:
            ys = xb[p] + h_y * (j - nb[p])
            dp = db[p]
            return spline.value(ys) - L * np.sqrt(dp * dp + (xb[p] - ys) ** 2)

        k[block], v_k[block] = _scan_argmax(
            sample, 2 * nb + 1, lip * h_y, spline.slope_lipschitz * h_y * h_y, scale[block]
        )

    def at(j: np.ndarray) -> np.ndarray:
        return (xs + h_y * (j - n)).reshape(x.shape)

    lo, y_k, hi = at(np.maximum(k - 1, 0)), at(k), at(np.minimum(k + 1, 2 * n))
    v_k = v_k.reshape(x.shape)
    # near the ends of the float range the brackets and the objective
    # overflow; a non-finite result is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        y_star, v_star = golden_section_max(
            lambda y: spline.value(y) - L * construction._libm(math.hypot, d, x - y), lo, hi
        )
    worse = v_star < v_k
    y_star, v_star = np.where(worse, y_k, y_star), np.where(worse, v_k, v_star)
    overflow = ~np.isfinite(v_star)
    if np.any(overflow):
        i = np.flatnonzero(overflow)[0]
        xi, di = x.ravel()[i].item(), d.ravel()[i].item()
        raise DomainError(f"{_at_point(xi, di)}: u overflows the float range at x = {xi!r}")
    return BruteResult(value=v_star[()], argmax_y=y_star[()], bound=0.5 * lip * h_y)


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
    raise error(f"{_at_point(x.flat[i].item(), d.flat[i].item())}: {message(i)}")


def _scan_argmax(
    sample: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: np.ndarray,
    lip_step: float,
    curv_step: float,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(k, v_k) per point p: the first index of the largest of sample(p, j),
    j = 0..count[p]-1, which is what np.argmax over that point's full scan
    returns, without evaluating most of the scan.  sample maps arrays of
    point numbers and indices to their samples elementwise.

    sample(p, .) must change by at most lip_step per unit step of j, and
    its second derivative in j must be at most curv_step.  The scan of each
    point runs as a tree, all points' trees level by level together: it
    starts at a coarse stride and refines by _REFINE per level.  An index
    past the end evaluates sample(p, count[p]-1), which keeps the extended
    scan lip_step-Lipschitz with the same first argmax, so every cell of a
    level is one stride s wide.  Inside a cell every sample is at most
    (v_a + v_b)/2 + lip_step*s/2 (Piyavskii-Shubert) and at most
    max(v_a, v_b) + curv_step*s^2/8 (the second-order bound; the padded
    samples equal v_b, so it holds for a cell past the end too).  A cell
    whose smaller bound plus a rounding slack stays below the best value
    seen at its point holds only samples strictly below the maximum and is
    dropped.  The slack is 1e-12*(1 + |best| + scale[p]), where
    |best| + scale[p] bounds the magnitude of every quantity in one sample's
    evaluation: rounding errs by a few ulps of it, and 1e-12 is ~4500 ulps.
    A non-finite best or bound prunes nothing.  Only the two constants
    enter: no concavity of the objective and nothing from the construction.
    Samples are computed exactly as a full scan computes them, so the
    result is that scan's, bit for bit.  Short scans start at stride 1,
    which is the full scan.

    best follows the rules of the one-point scan: the first level's maximum
    (a nan propagates), then raised by each later level's maximum when that
    is larger.  The index returned is np.argmax's over every sample taken,
    so a nan sample wins.
    """
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
    v = sample(p, j)
    seen = [(p, j, v)]
    best = np.full(points, -math.inf)
    np.maximum.at(best, p, v)
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
    v_k = np.empty(points)
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
    holds pointwise; the bracket tightens at rate (L_f + L) * h_y.  The
    boundary samples are built once per call; each point costs only its
    distances to them.
    """
    delta = problem.delta
    L = problem.L
    h = spec.h_y
    # top line sampled through the contact parameterization; dx/dy is within
    # [1-q, 1+q] of 1, so a y-step of h/(1+q) keeps the x-spacing below h
    ystep = h / (1.0 + problem.contraction_q)
    pad = problem.D * delta + h
    _check_scan((spec.xmax - spec.xmin + 2.0 * pad) / ystep + 1.0, "envelope scan")

    ys0 = np.arange(spec.xmin, spec.xmax + 0.5 * h, h)
    g0 = problem.spline.value(ys0)
    yt = np.arange(spec.xmin - pad, spec.xmax + pad + 0.5 * ystep, ystep)
    xt = construction.contact_inverse(yt, delta, problem)
    keep = (xt >= spec.xmin) & (xt <= spec.xmax)
    xt = xt[keep]
    gt = construction.u_at_contact(yt[keep], problem)

    def envelopes(p: tuple[float, float]) -> tuple[float, float]:
        x, d = p
        # checked per point, with the other two, so a grid error names the point
        if spec.margin < 10.0 * problem.D * delta:
            raise ConfigurationError(
                f"margin {spec.margin!r} too small: envelope tests need margin >= 10*D*delta = "
                f"{10.0 * problem.D * delta!r}"
            )
        if not (0.0 < d < delta):
            raise DomainError(f"point must lie strictly inside the strip, got d={d!r}")
        if not (spec.xmin + spec.margin <= x <= spec.xmax - spec.margin):
            raise DomainError(
                f"point x={x!r} outside the margin-trimmed window "
                f"[{spec.xmin + spec.margin!r}, {spec.xmax - spec.margin!r}]"
            )
        dist0 = np.hypot(x - ys0, d)
        distt = np.hypot(x - xt, delta - d)
        low = max(float(np.max(g0 - L * dist0)), float(np.max(gt - L * distt)))
        high = min(float(np.min(g0 + L * dist0)), float(np.min(gt + L * distt)))
        return low, high

    out = map_points(envelopes, *point)
    return out[..., 0][()], out[..., 1][()]


def _check_scan(points: float, what: str) -> None:
    if not points <= MAX_SCAN:
        raise ConfigurationError(_scan_message(points, what))


def _scan_message(points: float, what: str) -> str:
    return f"{what} needs {points:.3g} boundary samples, more than {MAX_SCAN}; raise h_y"


def map_points(evaluate: Callable[[tuple[float, float]], tuple], xs, ds) -> np.ndarray:
    """evaluate((x, d)) at every point of the broadcast (xs, ds) arrays, in
    C order; out[..., k] holds field k of each result.  A package error is
    re-raised with the point in its message, any other one gets it as a note."""
    xs, ds = np.broadcast_arrays(xs, ds)
    rows = []
    for x, d in zip(xs.ravel().tolist(), ds.ravel().tolist()):
        try:
            rows.append(tuple(evaluate((x, d))))
        except Exception as exc:
            context = _at_point(x, d)
            if isinstance(exc, StriplexError):
                raise type(exc)(f"{context}: {exc}") from exc
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(context)
            raise
    return np.array(rows, dtype=float).reshape(xs.shape + (-1,))


def _at_point(x: float, d: float) -> str:
    return f"at grid point (x={x!r}, d={d!r})"


def grid_eval(
    problem: AdmissibleProblem,
    spec: GridSpec,
    provenance: str = "closed_form",
    tol: float = construction.DEFAULT_TOL,
    max_iter: int = construction.DEFAULT_MAX_ITER,
) -> FieldGrid:
    """Fill the grid with the selected evaluator; deterministic.  tol and
    max_iter drive the closed-form contact solve."""
    if provenance not in PROVENANCES:
        raise ConfigurationError(f"unknown provenance {provenance!r}; expected one of {PROVENANCES}")
    if provenance in ("mw_min", "mw_max"):
        # the outer margin band anchors the envelope cones; evaluation
        # points live on the trimmed window
        if spec.xmin + spec.margin >= spec.xmax - spec.margin:
            raise ConfigurationError(
                f"window [{spec.xmin!r}, {spec.xmax!r}] too narrow for margin {spec.margin!r}"
            )
        xs = np.linspace(spec.xmin + spec.margin, spec.xmax - spec.margin, spec.nx)
    else:
        xs = spec.xs()
    ds = spec.heights(problem.delta, provenance)
    if provenance == "closed_form":
        values = construction.u_interior(xs[:, None], ds[None, :], problem, tol=tol, max_iter=max_iter)
    elif provenance == "brute_force":
        values = brute_force_u((xs[:, None], ds[None, :]), problem, spec.h_y).value
    else:
        values = mw_envelopes((xs[:, None], ds[None, :]), problem, spec)[0 if provenance == "mw_min" else 1]
    return FieldGrid(spec=spec, provenance=provenance, xs=xs, ds=ds, values=values)


# -- exports -------------------------------------------------------------


def grid_to_csv(grid: FieldGrid) -> str:
    xs, ds = np.broadcast_arrays(grid.xs[:, None], grid.ds[None, :])
    row = f"{REAL},{REAL},{REAL},{grid.provenance.replace('%', '%%')}"
    return "x,d,u,provenance\n" + fmt_rows(row, [xs.ravel(), ds.ravel(), grid.values.ravel()], "\n") + "\n"


def grid_to_structured(grid: FieldGrid) -> str:
    """Single JSON document mirroring the CSV fields at the same precision."""
    xs, ds = np.broadcast_arrays(grid.xs[:, None], grid.ds[None, :])
    rows = fmt_rows('{"x":%s,"d":%s,"u":%s}' % ((REAL,) * 3), [xs.ravel(), ds.ravel(), grid.values.ravel()], ",")
    return (
        '{"kind":"field_grid","provenance":"%s","xmin":%s,"xmax":%s,"nx":%d,"nd":%d,"rows":[%s]}\n'
        % (grid.provenance, fmt_real(grid.spec.xmin), fmt_real(grid.spec.xmax), grid.spec.nx, grid.spec.nd, rows)
    )
