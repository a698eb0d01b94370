"""Piecewise-linear scalar curves on explicit grids.

These curves back the static capacitance C(v), the charge characteristic Q(v)
and the instantaneous-resistor characteristic V(i). ``eval`` is ``np.interp``,
which clamps to the end values outside the grid, silently; ``_interp_lines``
writes it as lines of a generated kernel. Integrals and their inverse are
closed-form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParametersError


def _frozen_float_array(values, name: str) -> np.ndarray:
    """A read-only float copy of ``values``, which must be 1-D and finite."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParametersError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidParametersError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MonotoneCurve:
    """Piecewise-linear function on a strictly increasing grid.

    The arrays are copied and made read-only at construction, so a curve is
    an immutable value: changing the caller's arrays changes nothing.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _frozen_float_array(self.grid, "grid")
        values = _frozen_float_array(self.values, "values")
        if grid.size < 2:
            raise InvalidParametersError("curve needs at least two grid points")
        if grid.size != values.size:
            raise InvalidParametersError("grid and values must have equal length")
        if not np.all(np.diff(grid) > 0.0):
            raise InvalidParametersError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def x_min(self) -> float:
        return float(self.grid[0])

    @property
    def x_max(self) -> float:
        return float(self.grid[-1])

    def eval(self, x):
        """``np.interp`` at ``x``, an array or a scalar, which gives a Python float."""
        y = np.interp(x, self.grid, self.values)
        return float(y) if np.isscalar(x) else y

    @cached_property
    def _knots(self) -> np.ndarray:
        """F at every grid point: the running trapezoid integral from grid[0]."""
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.grid)
        return np.concatenate(([0.0], np.cumsum(seg)))

    @cached_property
    def _lists(self) -> tuple[list[float], list[float]]:
        # Grid and values as Python floats: the scalar paths and the lookups
        # ``_interp_lines`` writes bisect these, several times cheaper than numpy.
        return self.grid.tolist(), self.values.tolist()

    @cached_property
    def _tables(self) -> tuple[list[float], list[float], list[float]]:
        # ``_lists`` and the knot integrals, for the scalar integral paths.
        return (*self._lists, self._knots.tolist())

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
        g, v, knots = self.grid, self.values, self._knots
        x = np.asarray(x, dtype=float)
        idx = np.minimum(g.size - 2, np.maximum(0, np.searchsorted(g, x, side="right") - 1))
        g0, v0 = g[idx], v[idx]
        y = v0 + (v[idx + 1] - v0) * (x - g0) / (g[idx + 1] - g0)
        inner = knots[idx] + 0.5 * (v0 + y) * (x - g0)
        below = (x - g[0]) * v[0]
        above = knots[-1] + (x - g[-1]) * v[-1]
        return np.where(x <= g[0], below, np.where(x >= g[-1], above, inner))

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

    def inverse_integral_array(self, q) -> np.ndarray:
        """The ``x`` with F(x) = q at every point of ``q``: ``inverse_integral(q)[0]`` in one call.

        Bit-identical to the scalar form, like ``integral_array``: the same
        tables, ``searchsorted(side="right") - 1`` for ``bisect_right`` and the
        same expressions, evaluated in the same order.
        """
        g, v, knots = self.grid, self.values, self._knots
        q = np.asarray(q, dtype=float)
        idx = np.minimum(g.size - 2, np.maximum(0, np.searchsorted(knots, q, side="right") - 1))
        dq = q - knots[idx]
        c0 = v[idx]
        slope = (v[idx + 1] - c0) / (g[idx + 1] - g[idx])
        c1 = np.sqrt(np.maximum(c0 * c0 + 2.0 * slope * dq, 0.0))
        inner = g[idx] + 2.0 * dq / (c0 + c1)
        below = g[0] + q / v[0]
        above = g[-1] + (q - knots[-1]) / v[-1]
        return np.where(q <= 0.0, below, np.where(q >= knots[-1], above, inner))

    def integrate(self, a: float, b: float) -> float:
        """Exact integral of the interpolant from ``a`` to ``b``."""
        return self.integral_and_value(b)[0] - self.integral_and_value(a)[0]


def _interp_lines(x: str, y: str, g: str, v: str) -> list[str]:
    """``y = np.interp(x, g, v)`` for a float x on a curve's ``_lists`` ``g, v``,
    as source lines from indentation 0 that set the temporaries ``{y}_j`` and
    ``{y}_slope``. They follow np.interp's arithmetic, so they give its bits:
    NaN stays NaN, beyond the grid the end value, at a grid point its value,
    else ``slope * (x - g[j]) + v[j]``, and where that is NaN (the slope
    overflowed) the same from g[j + 1]; x - g[j] and x - g[j + 1] cannot both
    overflow, so np.interp's last resort, v[j], cannot fire."""
    j, slope = f"{y}_j", f"{y}_slope"
    return [
        f"if {x} != {x}:",
        f"    {y} = {x}",
        f"elif {x} <= {g}[0]:",
        f"    {y} = {v}[0]",
        f"elif {x} >= {g}[-1]:",
        f"    {y} = {v}[-1]",
        f"elif {g}[({j} := bisect_right({g}, {x}) - 1)] == {x}:",
        f"    {y} = {v}[{j}]",
        "else:",
        f"    {slope} = ({v}[{j} + 1] - {v}[{j}]) / ({g}[{j} + 1] - {g}[{j}])",
        f"    {y} = {slope} * ({x} - {g}[{j}]) + {v}[{j}]",
        f"    if {y} != {y}:",
        f"        {y} = {slope} * ({x} - {g}[{j} + 1]) + {v}[{j} + 1]",
    ]


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
