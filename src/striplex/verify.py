"""Acceptance checks wiring the construction against its oracles.

Each check returns a CheckResult with a PASS/FAIL/SKIP status and the
measured quantities, so the CLI can print one line per check and the test
suite can assert on the same objects.  All randomness is seeded; identical
configuration gives identical results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import analysis, construction, oracle
from .boundary import BoundarySpline
from .oracle import GridSpec
from .params import AdmissibleProblem, ProblemParams, admit

# evaluator used for the closed-form side of the oracle-equivalence check, on
# the (x, d) mesh arrays; replaceable by tests as a negative control
UEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]

# sample sizes of the checks, the envelope oracle's step and the seed of
# every random draw
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


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# -- individual checks ---------------------------------------------------


def check_oracle_equivalence(
    problem: AdmissibleProblem,
    spec: GridSpec,
    u_closed: UEvaluator,
    cache: dict,
) -> CheckResult:
    """Closed form vs brute force over the full grid; 1e-9 agreement and a
    60 s single-threaded budget.  The brute grid goes into cache for reuse
    before the closed form runs, so it survives a failing closed form."""
    xs = spec.xs()
    ds = spec.heights(problem.delta)
    t0 = time.perf_counter()
    brute = oracle.brute_force_u((xs[:, None], ds[None, :]), problem, spec.h_y)
    cache.update(xs=xs, ds=ds, brute=brute)
    closed = u_closed(xs[:, None], ds[None, :])
    elapsed = time.perf_counter() - t0
    max_diff = float(np.max(np.abs(closed - brute.value)))
    ok = max_diff <= 1e-9 and elapsed < 60.0
    detail = (
        f"max|closed - brute| = {max_diff:.3e} (tol 1e-09) over {len(xs)}x{len(ds)} grid, "
        f"h_y = {spec.h_y:g}, elapsed {elapsed:.1f} s (budget 60 s)"
    )
    return CheckResult("oracle_equivalence", _status(ok), detail)


def check_localization(problem: AdmissibleProblem, spec: GridSpec, cache: dict) -> CheckResult:
    """Every brute-force argmax stays within D*d of x, and doubling the
    search window moves no value by more than 1e-12.  The 2x scan is the
    cached 1x result widened (same bits as a fresh scan of the whole 2x
    window)."""
    xs, ds, brute = cache["xs"], cache["ds"], cache["brute"]
    # with D = 0 the scan window is just [x - h_y, x + h_y], so grant the
    # refinement that much play; for D > 0 the containment is strict
    slack = spec.h_y if problem.D == 0.0 else 0.0
    excess = float(np.max(np.abs(brute.argmax_y - xs[:, None]) - problem.D * ds[None, :] - slack))
    max_change = float(np.max(np.abs(brute.widened(2.0).value - brute.value)))
    ok = excess <= 0.0 and max_change <= 1e-12
    return CheckResult(
        "localization",
        _status(ok),
        f"max(|argmax - x| - D*d) = {excess:.3e} (<= 0); "
        f"max value change under 2x window = {max_change:.3e} (tol 1e-12)",
    )


def check_fixed_point(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Residuals at tol, contact round trip, iteration counts versus the
    contraction budget."""
    rng = np.random.default_rng(_SEED)
    delta = problem.delta
    grid = config.grid
    xs = rng.uniform(grid.xmin, grid.xmax, _N_RANDOM)
    # each x is solved at the top line and at one random lower height
    heights = np.stack([np.full_like(xs, delta), rng.uniform(0.1 * delta, delta, _N_RANDOM)], axis=1)
    sol = construction.solve_contacts(xs[:, None], heights, problem, tol=config.tol)
    # the residual of each returned Y, computed here rather than by the solver
    L = problem.L
    slope = problem.spline.derivative(xs[:, None] + sol.Y)
    worst_residual = float(np.max(np.abs(sol.Y - heights * slope / np.sqrt(L * L - slope * slope))))
    worst_iters = int(np.max(sol.iterations))
    q = problem.contraction_q
    iter_budget = math.ceil(math.log(config.tol) / math.log(q)) + 2 if 0.0 < q < 1.0 else 2
    half = 0.75 * 0.5 * (grid.xmax - grid.xmin)
    mid = 0.5 * (grid.xmin + grid.xmax)
    ys = rng.uniform(mid - half, mid + half, _N_RANDOM)
    x_back = construction.contact_inverse(ys, delta, problem)
    sol = construction.solve_contacts(x_back, delta, problem, tol=config.tol)
    worst_roundtrip = float(np.max(np.abs(sol.y - ys)))
    ok = worst_residual <= config.tol and worst_roundtrip <= 1e-10 and worst_iters <= iter_budget
    return CheckResult(
        "fixed_point_contract",
        _status(ok),
        f"max residual = {worst_residual:.3e} (tol {config.tol:g}); "
        f"max |y(x(y)) - y| = {worst_roundtrip:.3e} (tol 1e-10); "
        f"max iterations = {worst_iters} (budget {iter_budget})",
    )


def check_gradient_identity(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Central difference of u along the top line equals f' at the contact
    point, 1e-3 at step 1e-5."""
    rng = np.random.default_rng(_SEED + 1)
    kinks = np.array([k.y0 for k in problem.spline.kinks()])
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
    reports = analysis.kink_transfer_report(problem)
    if not reports:
        return CheckResult("kink_transfer", "SKIP", "boundary profile has no curvature kinks")
    worst_rel = 0.0
    ordered = True
    for r in reports:
        for pred, fd in ((r.upp_minus_pred, r.upp_minus_fd), (r.upp_plus_pred, r.upp_plus_fd)):
            worst_rel = max(worst_rel, abs(pred - fd) / max(1.0, abs(pred)))
        if r.fpp_minus < r.fpp_plus:
            ordered = ordered and r.upp_minus_pred < r.upp_plus_pred and r.upp_minus_fd < r.upp_plus_fd
        elif r.fpp_minus > r.fpp_plus:
            ordered = ordered and r.upp_minus_pred > r.upp_plus_pred and r.upp_minus_fd > r.upp_plus_fd
    ok = worst_rel <= 0.01 and ordered
    return CheckResult(
        "kink_transfer",
        _status(ok),
        f"{len(reports)} kink(s); max relative |pred - measured| = {worst_rel:.3e} (tol 1e-02); "
        f"one-sided ordering preserved: {ordered}",
    )


def check_envelope_coincidence(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Min/max Lipschitz envelopes of the boundary data bracket u and pinch
    to it at the sampling rate."""
    rng = np.random.default_rng(_SEED + 2)
    env_spec = replace(config.grid, h_y=_ENVELOPE_H)
    gap_tol = 5.0 * (problem.L_f + problem.L) * _ENVELOPE_H
    lo, hi = env_spec.trimmed_window(problem)
    # one (x, d) pair per row, drawn x first as one-at-a-time draws would
    xs, ds = rng.uniform([lo, 0.1 * problem.delta], [hi, 0.9 * problem.delta], (_N_ENVELOPE_POINTS, 2)).T
    low, high = oracle.mw_envelopes((xs, ds), problem, env_spec)
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
) -> tuple[tuple[float, float], ...]:
    """_N_PROBES probe points at mid-height, clear of every knot's contact
    segment.

    Prefers points whose contact neighborhood has nonzero boundary
    curvature: where f'' = 0 the residual is identically zero and only
    rounding noise would be measured."""
    spline = problem.spline
    ts = np.array([t for t, _ in spline.knots])
    d = 0.5 * problem.delta
    if len(ts) == 1 or ts[-1] - ts[0] <= 0.2:
        center = ts[0]
        xs = center + 0.3 * (np.arange(_N_PROBES) - 0.5 * (_N_PROBES - 1))
        return tuple((float(x), d) for x in xs)
    # x-positions of the knot segments at the probe height
    lines = ts + 0.5 * (construction.contact_inverse(ts, problem.delta, problem) - ts)
    clearance_min = max(5.0 * h_max, 0.02)
    cands = np.linspace(ts[0], ts[-1], 401)
    clear = cands[np.min(np.abs(cands[:, None] - lines), axis=1) >= clearance_min]
    ys = construction.solve_contacts(clear, d, problem, tol=tol).y
    good = clear[(spline.second_left(ys) != 0.0) | (spline.second_right(ys) != 0.0)]
    if len(good) < _N_PROBES:
        good = clear if len(clear) >= _N_PROBES else cands
    idx = np.linspace(0, len(good) - 1, _N_PROBES).round().astype(int)
    return tuple((float(good[i]), d) for i in idx)


def check_residual_refinement(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """The infinity-Laplacian residual decays by >= 1.5x per step halving at
    probes off the kink segments (or sits at the rounding floor)."""
    hs = (problem.delta / 10.0, problem.delta / 20.0, problem.delta / 40.0)
    probes = default_residual_probes(problem, max(hs), tol=config.tol)
    # rounding floor of the second-difference stencil: ~eps/h^2 times the
    # squared gradient scale; below it there is no decay left to measure
    eps = np.finfo(float).eps
    floors = np.array([4096.0 * eps * (1.0 + problem.L**2) / (h * h) for h in hs])
    points = tuple(np.array(probes, dtype=float).T)
    # res[k, p]: residual at probe p with step hs[k]
    res = np.abs([analysis.residual_infinity_laplacian(points, problem, h, tol=config.tol) for h in hs])
    measured = res[1:] > floors[1:, None]
    ratios = res[:-1][measured] / res[1:][measured]
    min_ratio = float(np.min(ratios)) if ratios.size else math.inf
    ok = bool(np.all(ratios >= 1.5))
    return CheckResult(
        "residual_refinement",
        _status(ok),
        f"min decay ratio per halving = "
        f"{'n/a (all at floor)' if min_ratio is math.inf else format(min_ratio, '.3f')} "
        f"(need >= 1.5) over {len(probes)} probes, h = {tuple(float(h) for h in hs)}",
    )


def check_degenerate_closed_forms(problem: AdmissibleProblem, config: VerifyConfig) -> CheckResult:
    """Constant and linear boundary data reproduce u = c - L*d and
    u = a*x - d*sqrt(L^2 - a^2) to 1e-12."""
    L = problem.L
    delta = problem.delta
    c, a = 1.0, 1.0
    const_problem = admit(ProblemParams(L=L, delta=delta, spline=BoundarySpline(f0=c, knots=((0.0, 0.0),))))
    linear_problem = admit(ProblemParams(L=L, delta=delta, spline=BoundarySpline(f0=0.0, knots=((0.0, a),))))
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


def run_acceptance(
    problem: AdmissibleProblem,
    config: VerifyConfig | None = None,
    u_override: UEvaluator | None = None,
) -> list[CheckResult]:
    """Run all checks in criterion order, isolating failures per check.

    u_override replaces the closed-form evaluator inside the
    oracle-equivalence check (negative-control hook for the test harness).
    """
    config = config or VerifyConfig()
    spec = config.grid
    u_closed = u_override or (lambda x, d: construction.u_interior(x, d, problem, tol=config.tol))
    results: list[CheckResult] = []

    def guarded(name: str, fn):
        try:
            return fn()
        except Exception as exc:  # keep the suite running; report the check as failed
            return CheckResult(name, "FAIL", f"error: {exc}")

    cache: dict = {}
    results.append(guarded("oracle_equivalence", lambda: check_oracle_equivalence(problem, spec, u_closed, cache)))
    if cache:
        results.append(guarded("localization", lambda: check_localization(problem, spec, cache)))
    else:
        results.append(CheckResult("localization", "SKIP", "no oracle grid available"))
    results.append(guarded("fixed_point_contract", lambda: check_fixed_point(problem, config)))
    results.append(guarded("gradient_identity", lambda: check_gradient_identity(problem, config)))
    results.append(guarded("kink_transfer", lambda: check_kink_transfer(problem)))
    results.append(guarded("envelope_coincidence", lambda: check_envelope_coincidence(problem, config)))
    results.append(guarded("segment_affinity", lambda: check_segment_affinity(problem, config)))
    results.append(guarded("lipschitz_quotient", lambda: check_lipschitz_quotient(problem, config)))
    results.append(guarded("residual_refinement", lambda: check_residual_refinement(problem, config)))
    results.append(guarded("degenerate_closed_forms", lambda: check_degenerate_closed_forms(problem, config)))
    return results
