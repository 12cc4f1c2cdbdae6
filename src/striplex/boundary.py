"""Piecewise-quadratic boundary data with exact Lipschitz constants.

The boundary profile f is stored through its slope: f' is the piecewise-linear
interpolant of knots (t_i, s_i), held constant at s_first / s_last outside the
knot range.  f is the exact antiderivative with f(t_first) = f0.  Values,
slopes, one-sided curvatures, and both Lipschitz constants are therefore
closed-form quantities, never numerical estimates.

Text format (one directive per line, '#' starts a comment, blanks ignored)::

    f0 <value>
    knot <t> <s>        # abscissas strictly increasing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError


class Kinks(NamedTuple):
    """Interior knots where the slope of f' jumps, as columns in increasing
    y0, with the one-sided curvatures of f there, which differ."""

    y0: np.ndarray
    second_left: np.ndarray
    second_right: np.ndarray


@dataclass(frozen=True)
class BoundarySpline:
    """C^{1,1} profile defined by f0 = f(t_first) and the knots of f'.

    Between consecutive knots f' is linear and f is quadratic; outside the
    knot range f' is constant.  Immutable after construction; evaluation is
    pure and safe for concurrent use.
    """

    f0: float
    knots: tuple[tuple[float, float], ...]
    # derived, filled by __post_init__: knot abscissas, slopes, segment
    # slopes of f' and knot values of f, and f'' on each of the len(knots)+1
    # intervals between knots (the segment slopes, 0 on the two tails), as
    # read-only arrays
    _arrays: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.knots) < 1:
            raise ValidationError("spline needs at least one knot")
        if not math.isfinite(self.f0):
            raise ValidationError(f"f0 must be finite, got {self.f0!r}")
        ts = [float(t) for t, _ in self.knots]
        # + 0.0 makes a -0.0 slope 0.0, which np.interp returns at its knot
        ss = [float(s) + 0.0 for _, s in self.knots]
        for i, (t, s) in enumerate(zip(ts, ss)):
            if not (math.isfinite(t) and math.isfinite(s)):
                raise ValidationError(f"knot {i}: non-finite entry ({t!r}, {s!r})")
        for i in range(len(ts) - 1):
            if not ts[i] < ts[i + 1]:
                raise ValidationError(
                    "knot abscissas must be strictly increasing, got "
                    f"t[{i}]={ts[i]!r} followed by t[{i + 1}]={ts[i + 1]!r}"
                )
        object.__setattr__(self, "knots", tuple(zip(ts, ss)))
        # slope of f' on each interior segment, and exact knot values of f
        # (trapezoid rule is exact for a piecewise-linear integrand)
        seg = [
            (ss[i + 1] - ss[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)
        ]
        vals = [self.f0]
        for i in range(len(ts) - 1):
            vals.append(vals[-1] + 0.5 * (ss[i] + ss[i + 1]) * (ts[i + 1] - ts[i]))
        curv = np.array([0.0, *seg, 0.0])
        arrays = (np.array(ts), np.array(ss), curv[1:-1], np.array(vals), curv)
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)

    # -- evaluation ----------------------------------------------------

    def value(self, y):
        """f(y), elementwise; a scalar y gives a numpy scalar."""
        y = np.asarray(y, dtype=float)
        ts, ss, seg, vals, _ = self._arrays
        # far outside the knot range dy*dy may overflow, and at y = +-inf meet
        # a zero slope; np.where drops those.  A flat tail reads its end value
        # at +-inf, its limit, where its formula gives 0*inf = nan
        with np.errstate(over="ignore", invalid="ignore"):
            tails = [vals[j] + ss[j] * (y - ts[j]) for j in (0, -1)]
            left, right = (np.where(np.isinf(y), vals[j], t) if ss[j] == 0 else t for j, t in zip((0, -1), tails))
            if len(ts) == 1:
                return left[()]
            # the segment of y, the end segments extended over the tails
            i = np.searchsorted(ts[1:-1], y, side="right")
            dy = y - ts[i]
            inner = vals[i] + ss[i] * dy + 0.5 * seg[i] * dy * dy
        return np.where(y <= ts[0], left, np.where(y >= ts[-1], right, inner))[()]

    def derivative(self, y):
        """f'(y), elementwise; a scalar y gives a numpy scalar."""
        # f' is np.interp's interpolant, constant past the ends; its C loop
        # computes seg[j]*(y - ts[j]) + ss[j], and gives ss[j] at a knot hit
        return np.interp(y, self._arrays[0], self._arrays[1])[()]

    def second_left(self, y):
        """One-sided curvature of f from the left, elementwise: slope of f'
        on the interval immediately left of y (0 on the constant tails, nan
        at nan); a scalar y gives a numpy scalar."""
        ts, curv = self._arrays[0], self._arrays[4]
        # side="left" so an exact knot hit picks the incoming interval;
        # searchsorted puts nan past the last knot, onto the right tail's 0
        return np.where(np.isnan(y), np.nan, curv[np.searchsorted(ts, y, side="left")])[()]

    def second_right(self, y):
        """One-sided curvature of f from the right, elementwise (0 on the
        constant tails, nan at nan)."""
        ts, curv = self._arrays[0], self._arrays[4]
        return np.where(np.isnan(y), np.nan, curv[np.searchsorted(ts, y, side="right")])[()]

    # -- exact constants -----------------------------------------------

    @property
    def max_slope(self) -> float:
        """sup |f'| — attained at a knot since f' is piecewise linear with
        constant tails."""
        return max(abs(s) for _, s in self.knots)

    @property
    def slope_lipschitz(self) -> float:
        """Lip(f') — the largest |slope| of f' over the interior segments
        (the tails contribute 0)."""
        return float(np.max(np.abs(self._arrays[4])))

    def kinks(self) -> Kinks:
        """Interior knots where the slope of f' changes, in increasing order.

        Knots whose adjacent segments share one slope are not kinks.  The
        junctions with the constant tails are excluded by contract.
        """
        ts, seg = self._arrays[0], self._arrays[2]
        # interior knot i + 1 joins segments i and i + 1
        jump = seg[:-1] != seg[1:]
        return Kinks(ts[1:-1][jump], seg[:-1][jump], seg[1:][jump])


# -- module-level operation surface -------------------------------------


def parse_spline(text: str) -> BoundarySpline:
    """Parse a spline-spec document into a validated BoundarySpline."""
    f0: float | None = None
    knots: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "f0":
            if f0 is not None:
                raise ParseError(f"line {lineno}: duplicate f0 directive")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'f0 <value>'")
            f0 = _parse_real(parts[1], lineno)
        elif parts[0] == "knot":
            if f0 is None:
                raise ParseError(f"line {lineno}: first directive must be 'f0 <value>'")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'knot <t> <s>'")
            knots.append((_parse_real(parts[1], lineno), _parse_real(parts[2], lineno)))
        else:
            raise ParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if f0 is None:
        raise ParseError("missing required 'f0 <value>' line")
    return BoundarySpline(f0=f0, knots=tuple(knots))


def _parse_real(token: str, lineno: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: not a real number: {token!r}") from None
    if not math.isfinite(v):
        raise ValidationError(f"line {lineno}: non-finite value {token!r}")
    return v
