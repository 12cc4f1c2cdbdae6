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


class _Pieces(NamedTuple):
    """f as one piece per interval between knots, tails included: row r
    covers the interval between knots r - 1 and r, row 0 all of the line
    left of the first knot and the last row all right of the last.  Each
    row holds its reference knot t and f's value v, slope s, half
    curvature h and curvature c there, so f(y) = v + s*dy + (h*dy)*dy with
    dy = y - t.  A tail's reference is its own knot, and its h is -0.0:
    (h*dy)*dy is then -0.0 at every finite dy, which leaves v + s*dy as it
    is, signed zeros included.  Row r >= 1 references knot r - 1, so t[1:]
    and s[1:] are the knots and their slopes, f' as np.interp reads it.
    keys are the knots as searchsorted(keys, y, "right") reads them to find
    the row of y, the first moved up by one ulp to keep it on the left tail."""

    keys: np.ndarray
    t: np.ndarray
    v: np.ndarray
    s: np.ndarray
    h: np.ndarray
    c: np.ndarray


def _pieces(f0: float, ts: list, ss: list) -> _Pieces:
    """The piece table of the spline with f(ts[0]) = f0 and knots (ts, ss)."""
    # slope of f' on each interior segment, and exact knot values of f
    # (trapezoid rule is exact for a piecewise-linear integrand)
    seg = [(ss[i + 1] - ss[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)]
    vals = [f0]
    for i in range(len(ts) - 1):
        vals.append(vals[-1] + 0.5 * (ss[i] + ss[i + 1]) * (ts[i + 1] - ts[i]))
    rows = [
        (ts[0], vals[0], ss[0], -0.0, 0.0),
        *((ts[i], vals[i], ss[i], 0.5 * seg[i], seg[i]) for i in range(len(seg))),
        (ts[-1], vals[-1], ss[-1], -0.0, 0.0),
    ]
    keys = np.array([math.nextafter(ts[0], math.inf), *ts[1:]])
    table = _Pieces(keys, *(np.array(column) for column in zip(*rows)))
    for a in table:
        a.flags.writeable = False
    return table


@dataclass(frozen=True)
class BoundarySpline:
    """C^{1,1} profile defined by f0 = f(t_first) and the knots of f'.

    Between consecutive knots f' is linear and f is quadratic; outside the
    knot range f' is constant.  Immutable after construction; evaluation is
    pure and safe for concurrent use.
    """

    f0: float
    knots: tuple[tuple[float, float], ...]
    # derived, filled by __post_init__: the piece table of f (see _pieces)
    _table: _Pieces = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_table", _pieces(self.f0, ts, ss))

    # -- evaluation ----------------------------------------------------

    def value(self, y):
        """f(y), elementwise; a scalar y gives a numpy scalar."""
        y = np.asarray(y, dtype=float)
        shape, y = y.shape, y.reshape(-1)
        table = self._table
        # far outside the knot range s*dy may overflow to +-inf; (h*dy)*dy
        # is -0.0 on the tails, so it adds nothing there, but nan where dy
        # is infinite
        with np.errstate(over="ignore", invalid="ignore"):
            i = np.searchsorted(table.keys, y, side="right")
            dy = np.take(table.t, i)
            np.subtract(y, dy, out=dy)
            f = np.take(table.s, i)
            f *= dy
            f += np.take(table.v, i)
            bend = np.take(table.h, i)
            bend *= dy
            bend *= dy
            f += bend
            nan = np.flatnonzero(np.isnan(f))
            if nan.size:
                # a tail reads v + s*dy where dy is infinite: +-inf where it
                # slopes, and at y = +-inf, its limit, its end value where it
                # is flat
                j, yj, dj = i[nan], y[nan], dy[nan]
                tail = (j == 0) | (j == table.t.size - 1)
                line = np.where(np.isinf(yj) & (table.s[j] == 0.0), table.v[j], table.v[j] + table.s[j] * dj)
                f[nan] = np.where(tail, line, f[nan])
        return f.reshape(shape)[()]

    def derivative(self, y):
        """f'(y), elementwise; a scalar y gives a numpy scalar."""
        # f' is np.interp's interpolant, constant past the ends; its C loop
        # computes seg[j]*(y - ts[j]) + ss[j], and gives ss[j] at a knot hit
        return np.interp(y, self._table.t[1:], self._table.s[1:])[()]

    def second_left(self, y):
        """One-sided curvature of f from the left, elementwise: slope of f'
        on the interval immediately left of y (0 on the constant tails, nan
        at nan); a scalar y gives a numpy scalar."""
        # side="left" so an exact knot hit picks the incoming interval;
        # searchsorted puts nan past the last knot, onto the right tail's 0
        i = np.searchsorted(self._table.t[1:], y, side="left")
        return np.where(np.isnan(y), np.nan, self._table.c[i])[()]

    def second_right(self, y):
        """One-sided curvature of f from the right, elementwise (0 on the
        constant tails, nan at nan)."""
        i = np.searchsorted(self._table.t[1:], y, side="right")
        return np.where(np.isnan(y), np.nan, self._table.c[i])[()]

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
        return float(np.max(np.abs(self._table.c)))

    def kinks(self) -> Kinks:
        """Interior knots where the slope of f' changes, in increasing order.

        Knots whose adjacent segments share one slope are not kinks.  The
        junctions with the constant tails are excluded by contract.
        """
        # interior knot i joins the rows i and i + 1 of the piece table
        t, c = self._table.t, self._table.c
        jump = c[1:-2] != c[2:-1]
        return Kinks(t[2:-1][jump], c[1:-2][jump], c[2:-1][jump])


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
