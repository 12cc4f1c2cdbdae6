"""Acceptance checks wiring the construction against its oracles.

Each check returns a CheckResult with a PASS/FAIL/SKIP status and the
measured quantities, so the CLI can print one line per check and the test
suite can assert on the same objects.  All randomness is seeded; identical
configuration gives identical results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, construction, oracle
from .boundary import BoundarySpline
from .errors import StriplexError
from .oracle import GridSpec
from .params import AdmissibleProblem

# sample sizes of the checks, the boundary step whose sampling bound
# 5*(L_f + L)*_ENVELOPE_H the envelope gap is held to, and the seed of every
# random draw
_N_RANDOM = 100
_N_PAIRS = 10_000
_N_ENVELOPE_POINTS = 50
_ENVELOPE_H = 1e-4
_N_SEGMENTS = 20
_N_PROBES = 10
# rounds of redrawing the rejected gradient-identity points; a window that
# lies (almost) wholly within 1e-4 of kinks runs out of them
_DRAW_ROUNDS = 10
_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for the acceptance run; defaults match the desk scale and are
    the CLI's defaults."""

    grid: GridSpec = GridSpec(xmin=-2.0, xmax=2.0, nx=257, nd=17, h_y=1e-6)
    tol: float = construction.DEFAULT_TOL

    def __post_init__(self):
        construction.require_positive("tol", self.tol)


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# -- individual checks ---------------------------------------------------


def check_oracle_equivalence(problem: AdmissibleProblem, config: VerifyConfig, grid: list) -> CheckResult:
    """Closed form vs brute force over the full grid; 1e-9 agreement and a
    60 s single-threaded budget.

    One brute-force call over the 2x window |y - x| <= 2*D*d + h_y serves
    localization too: grid receives the 1x value and argmax and the 2x
    result before the closed form runs, so localization has them either
    way.  The 1x result is read off the 2x one.  Both windows sample y = x
    + h_y*j at the same offsets j, and the 1x window holds the offsets
    -n..n.  Where the 2x argmax lies strictly between the 1x samples at
    offsets 1 - n and n - 1 (in exact arithmetic, wherever |argmax - x| <
    D*d, so at every point whose argmax lies at least 2*h_y inside D*d),
    it lies in the bracket of the 2x best sample, so that sample and both
    its bracket neighbours are 1x samples,
    np.argmax picks it on the 1x grid too, and the refinement, elementwise
    in (x, d, bracket), returns the same bits.  Only the other points take
    a 1x call: none on the standard runs, all of them when D = 0.  If the
    2x call raises, as where only the 2x window is past the scan cap, one
    1x call covers the grid and grid keeps the 2x error for localization."""
    spec = config.grid
    h_y = spec.h_y
    xs = spec.xs()[:, None]
    ds = spec.heights(problem.delta)[None, :]
    t0 = time.perf_counter()
    try:
        wide = oracle.brute_force_u((xs, ds), problem, h_y, window_factor=2.0)
    except StriplexError as exc:
        wide = exc
        brute = oracle.brute_force_u((xs, ds), problem, h_y)
        value, argmax_y = brute.value, brute.argmax_y
    else:
        value, argmax_y = wide.value.copy(), wide.argmax_y.copy()
        # the 1x samples at offsets -(n - 1) and n - 1, placed as the scan
        # places them
        n = np.ceil((problem.D * ds + h_y) / h_y)
        redo = ~((h_y * (1.0 - n) + xs < argmax_y) & (argmax_y < h_y * (n - 1.0) + xs))
        if redo.any():
            x_r, d_r = (a[redo] for a in np.broadcast_arrays(xs, ds))
            brute = oracle.brute_force_u((x_r, d_r), problem, h_y)
            value[redo], argmax_y[redo] = brute.value, brute.argmax_y
    grid.append((value, argmax_y, wide))
    closed = construction.u_interior(xs, ds, problem, tol=config.tol)
    elapsed = time.perf_counter() - t0
    max_diff = float(np.max(np.abs(closed - value)))
    ok = max_diff <= 1e-9 and elapsed < 60.0
    detail = (
        f"max|closed - brute| = {max_diff:.3e} (tol 1e-09) over {xs.size}x{ds.size} grid, "
        f"h_y = {h_y:g}, elapsed {elapsed:.1f} s (budget 60 s)"
    )
    return CheckResult("oracle_equivalence", _status(ok), detail)


def check_localization(problem: AdmissibleProblem, config: VerifyConfig, grid: list) -> CheckResult:
    """Every brute-force argmax stays within D*d of x, and doubling the
    search window moves no value by more than 1e-12; skips without the
    results check_oracle_equivalence leaves in grid, and raises the error
    of its 2x call if that call failed.  Its 1x value and argmax are bit
    for bit those of a 1x call (see check_oracle_equivalence), so a point
    whose 1x result is read off the 2x one shows no change."""
    if not grid:
        return CheckResult("localization", "SKIP", "no oracle grid available")
    ((value, argmax_y, wide),) = grid
    spec = config.grid
    xs, ds = spec.xs(), spec.heights(problem.delta)
    # with D = 0 the scan window is just [x - h_y, x + h_y], so grant the
    # refinement that much play; for D > 0 the containment is strict
    slack = spec.h_y if problem.D == 0.0 else 0.0
    excess = float(np.max(np.abs(argmax_y - xs[:, None]) - problem.D * ds[None, :] - slack))
    if isinstance(wide, StriplexError):
        raise wide
    max_change = float(np.max(np.abs(wide.value - value)))
    ok = excess <= 0.0 and max_change <= 1e-12
    return CheckResult(
        "localization",
        _status(ok),
        f"max(|argmax - x| - D*d) = {excess:.3e} (<= 0); "
        f"max value change under 2x window = {max_change:.3e} (tol 1e-12)",
    )


def check_fixed_point(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Residuals at tol, contact round trip, and the contraction's
    iteration count versus its budget: the fixed-point map, run here from
    Y = 0 at the same points, must meet the a-posteriori rule |Y_k -
    Y_(k-1)| <= tol*(1-q)/q within ceil(log(tol)/log(q)) + 2 steps.  Skips
    where that threshold lies below 4 ulps of the largest offset
    delta*phi(L_f), which the float iteration cannot resolve."""
    rng = np.random.default_rng(_SEED)
    delta, L, L_f = problem.delta, problem.L, problem.L_f
    q = problem.contraction_q
    threshold = config.tol * (1.0 - q) / q if q > 0.0 else math.inf
    y_max = delta * L_f / math.sqrt(L * L - L_f * L_f)
    if threshold < 4.0 * math.ulp(y_max):
        return CheckResult(
            "fixed_point_contract",
            "SKIP",
            f"stopping threshold tol*(1-q)/q = {threshold:.3e} lies below 4 ulps of max|Y| = {y_max:.3e}",
        )
    grid = config.grid
    xs = rng.uniform(grid.xmin, grid.xmax, _N_RANDOM)[:, None]
    # each x is solved at the top line and at one random lower height
    heights = np.stack([np.full(_N_RANDOM, delta), rng.uniform(0.1 * delta, delta, _N_RANDOM)], axis=1)
    sol = construction.solve_contacts(xs, heights, problem, tol=config.tol)
    # the residual of each returned Y, computed here rather than by the solver
    slope = problem.spline.derivative(xs + sol.Y)
    worst_residual = float(np.max(np.abs(sol.Y - heights * slope / np.sqrt(L * L - slope * slope))))
    iter_budget = math.ceil(math.log(config.tol) / math.log(q)) + 2 if 0.0 < q < 1.0 else 2
    # the steps of the map until the last point meets the rule
    Y, running, worst_iters = np.zeros(heights.shape), np.ones(heights.shape, dtype=bool), None
    for k in range(1, iter_budget + 1):
        slope = problem.spline.derivative(xs + Y)
        Y_next = heights * slope / np.sqrt(L * L - slope * slope)
        running &= ~(np.abs(Y_next - Y) <= threshold)
        Y = Y_next
        if not running.any():
            worst_iters = k
            break
    half = 0.75 * 0.5 * (grid.xmax - grid.xmin)
    mid = 0.5 * (grid.xmin + grid.xmax)
    ys = rng.uniform(mid - half, mid + half, _N_RANDOM)
    x_back = construction.contact_inverse(ys, delta, problem)
    sol = construction.solve_contacts(x_back, delta, problem, tol=config.tol)
    worst_roundtrip = float(np.max(np.abs(sol.y - ys)))
    ok = worst_residual <= config.tol and worst_roundtrip <= 1e-10 and worst_iters is not None
    iterations = f"= {worst_iters}" if worst_iters is not None else f"> {iter_budget}"
    return CheckResult(
        "fixed_point_contract",
        _status(ok),
        f"max residual = {worst_residual:.3e} (tol {config.tol:g}); "
        f"max |y(x(y)) - y| = {worst_roundtrip:.3e} (tol 1e-10); "
        f"max iterations {iterations} (budget {iter_budget})",
    )


def check_gradient_identity(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Central difference of u along the top line equals f' at the contact
    point, 1e-3 at step 1e-5."""
    rng = np.random.default_rng(_SEED + 1)
    kinks = problem.spline.kinks().y0
    half = 0.75 * 0.5 * (config.grid.xmax - config.grid.xmin)
    mid = 0.5 * (config.grid.xmin + config.grid.xmax)
    h = 1e-5
    # draws within 1e-4 of a kink are rejected; drawing only the shortfall
    # keeps the stream of one-at-a-time draws
    ys = np.empty(0)
    for _ in range(_DRAW_ROUNDS):
        if ys.size == _N_RANDOM:
            break
        draw = rng.uniform(mid - half, mid + half, _N_RANDOM - ys.size)
        ys = np.concatenate([ys, draw[~np.any(np.abs(draw[:, None] - kinks) < 1e-4, axis=1)]])
    if ys.size < _N_RANDOM:
        return CheckResult(
            "gradient_identity",
            "SKIP",
            f"only {ys.size} of {_N_RANDOM} draws lie 1e-4 clear of every kink after {_DRAW_ROUNDS} rounds",
        )
    x = construction.contact_inverse(ys, problem.delta, problem)
    up, dn = construction.u_interior(np.add.outer((h, -h), x), problem.delta, problem, tol=config.tol)
    fd = (up - dn) / (2.0 * h)
    worst = max(0.0, float(np.max(np.abs(fd - problem.spline.derivative(ys)))))
    ok = worst <= 1e-3
    return CheckResult(
        "gradient_identity",
        _status(ok),
        f"max |FD(u)(x(y)) - f'(y)| = {worst:.3e} over {_N_RANDOM} points (tol 1e-03, h = {h:g})",
    )


def check_kink_transfer(problem: AdmissibleProblem) -> CheckResult:
    """Predicted one-sided second derivatives on the top line against the
    Richardson-extrapolated oracle measurement, plus the strict one-sided
    gap that witnesses the lost C^2 regularity."""
    r = analysis.kink_transfer_report(problem)
    if not r.y0.size:
        return CheckResult("kink_transfer", "SKIP", "boundary profile has no curvature kinks")
    pred = np.array([r.upp_minus_pred, r.upp_plus_pred])
    fd = np.array([r.upp_minus_fd, r.upp_plus_fd])
    worst_rel = float(np.max(np.abs(pred - fd) / np.maximum(1.0, np.abs(pred))))
    # at each kink both images, predicted and measured, jump the way the
    # boundary curvature does: up or down, never level
    minus, plus = np.stack([pred, fd], axis=1)
    ordered = bool(np.all(np.sign(plus - minus) == np.sign(r.fpp_plus - r.fpp_minus)))
    ok = worst_rel <= 0.01 and ordered
    return CheckResult(
        "kink_transfer",
        _status(ok),
        f"{r.y0.size} kink(s); max relative |pred - measured| = {worst_rel:.3e} (tol 1e-02); "
        f"one-sided ordering preserved: {ordered}",
    )


def check_envelope_coincidence(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Min/max Lipschitz envelopes of the boundary data bracket u and pinch
    to it, within the bound of a boundary sampled at step _ENVELOPE_H."""
    rng = np.random.default_rng(_SEED + 2)
    gap_tol = 5.0 * (problem.L_f + problem.L) * _ENVELOPE_H
    lo, hi = config.grid.trimmed_window(problem)
    # one (x, d) pair per row, drawn x first as one-at-a-time draws would
    xs, ds = rng.uniform([lo, 0.1 * problem.delta], [hi, 0.9 * problem.delta], (_N_ENVELOPE_POINTS, 2)).T
    low, high = oracle.mw_envelopes((xs, ds), problem)
    u = construction.u_interior(xs, ds, problem, tol=config.tol)
    max_gap = max(0.0, float(np.max(high - low)))
    # 1e-12 float guard on inequalities that hold exactly in real arithmetic
    bracket_ok = bool(np.all((low <= u + 1e-12) & (u <= high + 1e-12) & (low <= high + 1e-12)))
    ok = max_gap <= gap_tol and bracket_ok
    return CheckResult(
        "envelope_coincidence",
        _status(ok),
        f"max(high - low) = {max_gap:.3e} (tol {gap_tol:.3e}) over {_N_ENVELOPE_POINTS} points; "
        f"low <= u <= high: {bracket_ok}",
    )


def check_segment_affinity(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """u restricted to a contact segment is affine in the segment parameter
    (slope -L per unit length)."""
    ts = [t for t, _ in problem.spline.knots]
    lo, hi = (ts[0] - 1.0, ts[-1] + 1.0) if len(ts) == 1 else (ts[0] - 0.25, ts[-1] + 0.25)
    ys = np.linspace(lo, hi, _N_SEGMENTS)[:, None]
    (px, pd), line_value = construction.segment_value(ys, np.arange(0.1, 0.95, 0.1), problem)
    u = construction.u_interior(px, pd, problem, tol=config.tol)
    worst = float(np.max(np.abs(u - line_value)))
    ok = worst <= 1e-9
    return CheckResult(
        "segment_affinity",
        _status(ok),
        f"max |u(segment(t)) - affine(t)| = {worst:.3e} over {_N_SEGMENTS} segments (tol 1e-09)",
    )


def check_lipschitz_quotient(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Empirical sup of |dY/dx| against the contraction-derived bound
    q/(1-q); the variant bound (Lip(f') squared) is reported, not gated."""
    rng = np.random.default_rng(_SEED + 3)
    x1 = rng.uniform(config.grid.xmin, config.grid.xmax, _N_PAIRS)
    dx = rng.uniform(1e-4, 0.2, _N_PAIRS) * rng.choice([-1.0, 1.0], _N_PAIRS)
    # tol fixed at 1e-14 so solver error stays far below the measured quotients
    ya = construction.solve_contacts(x1, problem.delta, problem, tol=1e-14).Y
    yb = construction.solve_contacts(x1 + dx, problem.delta, problem, tol=1e-14).Y
    sup_quot = float(np.max(np.abs(yb - ya) / np.abs(dx)))
    bound = problem.lip_Y_bound
    variant = problem.lip_Y_bound_variant
    ok = sup_quot <= bound
    variant_holds = sup_quot <= variant
    return CheckResult(
        "lipschitz_quotient",
        _status(ok),
        f"sup |dY/dx| = {sup_quot:.6e} <= q/(1-q) = {bound:.6e} over {_N_PAIRS} pairs; "
        f"variant bound {variant:.6e} holds: {variant_holds} (informative)",
    )


def default_residual_probes(
    problem: AdmissibleProblem, h_max: float, tol: float = construction.DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """The (x, d) arrays of _N_PROBES probe points at mid-height, clear of
    every knot's contact segment.

    Prefers points whose contact neighborhood has nonzero boundary
    curvature: where f'' = 0 the residual is identically zero and only
    rounding noise would be measured."""
    spline = problem.spline
    ts = np.array([t for t, _ in spline.knots])
    d = np.full(_N_PROBES, 0.5 * problem.delta)
    if len(ts) == 1 or ts[-1] - ts[0] <= 0.2:
        return ts[0] + 0.3 * (np.arange(_N_PROBES) - 0.5 * (_N_PROBES - 1)), d
    # x-positions of the knot segments at the probe height
    lines = ts + 0.5 * (construction.contact_inverse(ts, problem.delta, problem) - ts)
    clearance_min = max(5.0 * h_max, 0.02)
    cands = np.linspace(ts[0], ts[-1], 401)
    clear = cands[np.min(np.abs(cands[:, None] - lines), axis=1) >= clearance_min]
    ys = construction.solve_contacts(clear, d[0], problem, tol=tol).y
    good = clear[(spline.second_left(ys) != 0.0) | (spline.second_right(ys) != 0.0)]
    if len(good) < _N_PROBES:
        good = clear if len(clear) >= _N_PROBES else cands
    return good[np.linspace(0, len(good) - 1, _N_PROBES).round().astype(int)], d


def check_residual_refinement(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """The infinity-Laplacian residual decays by >= 1.5x per step halving at
    probes off the kink segments (or sits at the rounding floor).  Skips
    where a step's square or its floor leaves the normal floats."""
    hs = problem.delta / np.array([10.0, 20.0, 40.0])
    # rounding floor of the second-difference stencil: ~eps/h^2 times the
    # squared gradient scale; below it there is no decay left to measure
    with np.errstate(over="ignore", divide="ignore"):
        squares = hs * hs
        floors = 4096.0 * np.finfo(float).eps * (1.0 + problem.L**2) / squares
    tiny = np.finfo(float).tiny
    normal = (tiny <= squares) & (squares < math.inf) & (tiny <= floors) & (floors < math.inf)
    if not normal.all():
        k = int(np.argmin(normal))
        why = f"at step h = {hs[k]:.3e}, h^2 = {squares[k]:.3e} or its rounding floor {floors[k]:.3e}"
        return CheckResult("residual_refinement", "SKIP", f"{why} is not a finite normal float")
    points = default_residual_probes(problem, hs[0], tol=config.tol)
    # res[k, p]: residual at probe p with step hs[k]
    res = np.abs([analysis.residual_infinity_laplacian(points, problem, h, tol=config.tol) for h in hs.tolist()])
    measured = res[1:] > floors[1:, None]
    ratios = res[:-1][measured] / res[1:][measured]
    min_ratio = float(np.min(ratios)) if ratios.size else math.inf
    ok = bool(np.all(ratios >= 1.5))
    return CheckResult(
        "residual_refinement",
        _status(ok),
        f"min decay ratio per halving = "
        f"{'n/a (all at floor)' if min_ratio is math.inf else format(min_ratio, '.3f')} "
        f"(need >= 1.5) over {_N_PROBES} probes, h = {tuple(hs.tolist())}",
    )


def check_degenerate_closed_forms(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Constant and linear boundary data reproduce u = c - L*d and
    u = a*x - d*sqrt(L^2 - a^2) to 1e-12."""
    L = problem.L
    delta = problem.delta
    c, a = 1.0, 1.0
    const_problem = AdmissibleProblem(L=L, delta=delta, spline=BoundarySpline(f0=c, knots=((0.0, 0.0),)))
    linear_problem = AdmissibleProblem(L=L, delta=delta, spline=BoundarySpline(f0=0.0, knots=((0.0, a),)))
    rng = np.random.default_rng(_SEED + 4)

    def deviation(evaluate, n: int) -> float:
        # n (x, d) pairs, drawn x first as one-at-a-time draws would
        xs, ds = rng.uniform([-3.0, 0.05 * delta], [3.0, delta], (n, 2)).T
        const_dev = np.abs(evaluate(xs, ds, const_problem) - (c - L * ds))
        linear_dev = np.abs(evaluate(xs, ds, linear_problem) - (a * xs - ds * math.sqrt(L * L - a * a)))
        return float(np.max(np.maximum(const_dev, linear_dev)))

    def brute(xs, ds, p):
        return oracle.brute_force_u((xs, ds), p, 1e-6).value

    def closed(xs, ds, p):
        return construction.u_interior(xs, ds, p, tol=config.tol)

    worst = max(0.0, deviation(closed, 50), deviation(brute, 10))
    ok = worst <= 1e-12
    return CheckResult(
        "degenerate_closed_forms",
        _status(ok),
        f"max deviation from the constant/linear closed forms = {worst:.3e} (tol 1e-12)",
    )


# -- suite ---------------------------------------------------------------


def run_acceptance(problem: AdmissibleProblem, config: VerifyConfig | None = None) -> list[CheckResult]:
    """Run all checks in criterion order, isolating failures per check.
    Each lambda looks its check up when called, so a check rebound on this
    module (a tracer, a test) is the one that runs."""
    config = config or VerifyConfig()
    grid: list = []  # the 1x and 2x oracle results, from oracle_equivalence to localization
    checks = (
        ("oracle_equivalence", lambda: check_oracle_equivalence(problem, config, grid)),
        ("localization", lambda: check_localization(problem, config, grid)),
        ("fixed_point_contract", lambda: check_fixed_point(problem, config)),
        ("gradient_identity", lambda: check_gradient_identity(problem, config)),
        ("kink_transfer", lambda: check_kink_transfer(problem)),
        ("envelope_coincidence", lambda: check_envelope_coincidence(problem, config)),
        ("segment_affinity", lambda: check_segment_affinity(problem, config)),
        ("lipschitz_quotient", lambda: check_lipschitz_quotient(problem, config)),
        ("residual_refinement", lambda: check_residual_refinement(problem, config)),
        ("degenerate_closed_forms", lambda: check_degenerate_closed_forms(problem, config)),
    )
    results: list[CheckResult] = []
    for name, check in checks:
        try:
            results.append(check())
        except Exception as exc:  # keep the suite running; report the check as failed
            results.append(CheckResult(name, "FAIL", f"error: {exc}"))
    return results
