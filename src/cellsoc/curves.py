"""Piecewise-linear scalar curves on explicit grids.

These curves back the static capacitance C(v), the charge characteristic Q(v)
and the instantaneous-resistor characteristic V(i). Interpolation is exact at
grid points, evaluation outside the grid clamps to the endpoint value, and
integrals and their inverse are closed-form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParametersError


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParametersError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidParametersError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True, eq=False)
class MonotoneCurve:
    """Piecewise-linear function on a strictly increasing grid.

    The arrays are copied and frozen at construction; treat instances as
    immutable values.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _as_float_array(self.grid, "grid")
        values = _as_float_array(self.values, "values")
        if grid.size < 2:
            raise InvalidParametersError("curve needs at least two grid points")
        if grid.size != values.size:
            raise InvalidParametersError("grid and values must have equal length")
        if not np.all(np.diff(grid) > 0.0):
            raise InvalidParametersError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_x_lo", float(grid[0]))
        object.__setattr__(self, "_x_hi", float(grid[-1]))

    @property
    def x_min(self) -> float:
        return self._x_lo

    @property
    def x_max(self) -> float:
        return self._x_hi

    def eval(self, x):
        """Interpolate at ``x`` (scalar or array), clamping outside the grid."""
        y = np.interp(x, self.grid, self.values)
        return float(y) if np.isscalar(x) else y

    __call__ = eval

    @cached_property
    def _tables(self) -> tuple[list[float], list[float], list[float]]:
        # Grid, values and knot integrals as Python floats: the scalar paths
        # below bisect these, which is several times cheaper than numpy calls.
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.grid)
        knots = np.concatenate(([0.0], np.cumsum(seg)))
        return self.grid.tolist(), self.values.tolist(), knots.tolist()

    def integral_and_value(self, x: float) -> tuple[float, float]:
        """F(x) = integral of the interpolant from grid[0] to ``x``, and its value there.

        Outside the grid the curve continues as a constant, so F is linear there.
        """
        g, v, knots = self._tables
        if x <= g[0]:
            return (x - g[0]) * v[0], v[0]
        if x >= g[-1]:
            return knots[-1] + (x - g[-1]) * v[-1], v[-1]
        idx = bisect_right(g, x) - 1
        y = v[idx] + (v[idx + 1] - v[idx]) * (x - g[idx]) / (g[idx + 1] - g[idx])
        return knots[idx] + 0.5 * (v[idx] + y) * (x - g[idx]), y

    def integral_array(self, x) -> np.ndarray:
        """F at every point of ``x``: ``integral_and_value(x)[0]`` in one array call.

        Bit-identical to the scalar form: the same tables, the same segment
        (``searchsorted(side="right") - 1`` breaks ties like ``bisect_right``)
        and the same expressions, evaluated in the same order.
        """
        g, v, knots = (np.array(t) for t in self._tables)
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
        g0, v0 = g[idx], v[idx]
        y = v0 + (v[idx + 1] - v0) * (x - g0) / (g[idx + 1] - g0)
        inner = knots[idx] + 0.5 * (v0 + y) * (x - g0)
        below = (x - g[0]) * v[0]
        above = knots[-1] + (x - g[-1]) * v[-1]
        return np.where(x <= g[0], below, np.where(x >= g[-1], above, inner))

    def segments(self) -> np.ndarray:
        """The constants of ``integral_and_value`` and ``inverse_integral`` per segment.

        Segment s holds the points that s knots lie at or below, as
        ``bisect_right`` counts them: s = 0 is below the grid, s = L at or above
        its end, and 0 < s < L the interpolated segment s - 1. Returns an
        [5, L + 1] array with rows g (lower knot), c (value there), dc and dg
        (steps to the next knot) and K (integral up to g), so that, with
        dx = x - g and dq = q - K, the scalar expressions read

            y = c + dc * dx / dg            F = K + 0.5 * (c + y) * dx
            x = g + 2 * dq / (c + sqrt(c * c + 2 * (dc / dg) * dq)).

        The two end segments are flat (dc = 0, dg = 1). There the expressions
        give the scalar end branches, y = c, F = K + c * dx and x = g + dq / c,
        bit for bit as long as 0.5 * (c + c) == c == sqrt(c * c) and nothing
        overflows or underflows.
        """
        g, v, knots = (np.array(t) for t in self._tables)
        dv = np.concatenate(([0.0], np.diff(v), [0.0]))
        dg = np.concatenate(([1.0], np.diff(g), [1.0]))
        return np.array([np.concatenate(([g[0]], g)), np.concatenate(([v[0]], v)),
                         dv, dg, np.concatenate(([0.0], knots))])

    def inverse_integral(self, q: float) -> tuple[float, float]:
        """The ``x`` with F(x) = ``q``, and the curve's value there.

        Defined for curves with strictly positive values, where F is strictly
        increasing; past the grid F is inverted along its linear extension.
        """
        g, v, knots = self._tables
        if q <= 0.0:
            return g[0] + q / v[0], v[0]
        if q >= knots[-1]:
            return g[-1] + (q - knots[-1]) / v[-1], v[-1]
        idx = bisect_right(knots, q) - 1
        dq = q - knots[idx]
        c0 = v[idx]
        slope = (v[idx + 1] - c0) / (g[idx + 1] - g[idx])
        # Solve c0*u + slope*u^2/2 = dq for the offset u within the segment.
        # The root is the value at the solution; this form is cancellation-free
        # and valid for any slope sign including zero.
        c1 = math.sqrt(max(c0 * c0 + 2.0 * slope * dq, 0.0))
        return g[idx] + 2.0 * dq / (c0 + c1), c1

    def integrate(self, a: float, b: float) -> float:
        """Exact integral of the interpolant from ``a`` to ``b``."""
        return self.integral_and_value(b)[0] - self.integral_and_value(a)[0]


def isotonic_nondecreasing(y, weights=None) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing sequences.

    Pool-adjacent-violators; O(n). Ties are merged into flat runs.
    """
    y = np.asarray(y, dtype=float)
    if weights is None:
        weights = np.ones_like(y)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != y.shape or np.any(weights <= 0):
            raise InvalidParametersError("weights must be positive and match y")

    # Each block is [mean, weight, count]; violating neighbours get pooled.
    blocks: list[list[float]] = []
    for val, w in zip(y, weights):
        blocks.append([float(val), float(w), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            w = w1 + w2
            blocks.append([(m1 * w1 + m2 * w2) / w, w, c1 + c2])
    out = np.empty_like(y)
    pos = 0
    for mean, _, count in blocks:
        out[pos:pos + count] = mean
        pos += count
    return out
