"""Pack-shaped series through the batch kernel.

``MultiCellEkf.run`` hands each cell's services, one per revolution, to
its slot's ``CellFilter.series``. These draws give it what a pack holds: uneven service
counts, long gaps, out-of-curve currents and states driven past the window.
Bits are compared through ``.view(np.int64)``.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cellsoc import (  # noqa: E402
    CellParameters,
    CellState,
    EkfConfig,
    EkfState,
    InvalidInputError,
    MonotoneCurve,
    NumericalFailureError,
    RcGroup,
)
from helpers import _is_psd, held_series, make_resistor  # noqa: E402

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def outcome(fn):
    """fn()'s result, or None and its error as (type, message); warnings are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(), None
        except (NumericalFailureError, InvalidInputError) as exc:
            return None, (type(exc), str(exc))


def one_by_one(cells):
    return [held_series(ekf, prm, cfg, v, i, dt, i) for ekf, prm, cfg, v, i, dt in cells]


@st.composite
def pack_cells(draw):
    """1-6 cells with 1-3 RC groups, 2-12 knot tables, uneven service counts,
    zero and out-of-curve currents, gaps long enough to cross the whole window,
    and voltages that drive the state past both ends of it."""
    n_cells = draw(st.integers(1, 6))
    services = draw(st.integers(0, 24))
    cells = []
    for _ in range(n_cells):
        size = draw(st.integers(2, 12))
        v_min = draw(st.floats(2.5, 3.2))
        widths = draw(st.lists(st.floats(0.01, 0.2), min_size=size - 1, max_size=size - 1))
        values = draw(st.lists(st.floats(500.0, 40000.0), min_size=size, max_size=size))
        grid = v_min + np.concatenate(([0.0], np.cumsum(widths)))
        taus = np.cumsum(draw(st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=3)))
        groups = [RcGroup(draw(st.floats(0.001, 0.05)), float(tau)) for tau in taus]
        i_max = draw(st.sampled_from([5.0, 50.0]))
        prm = CellParameters.from_curves(
            float(grid[0]), float(grid[-1]), MonotoneCurve(grid, values), groups,
            make_resistor(0.03, i_max=i_max),
        )
        k = services + draw(st.integers(0, 2))
        base = draw(st.sampled_from([0.25, 1.0, 30.0, 5e3]))
        jitter = draw(st.lists(st.sampled_from([0.0, 2.0**-52, -(2.0**-52), 1.0]),
                               min_size=k, max_size=k))
        dt = base * (1.0 + np.array(jitter))
        current = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(-80.0, 80.0)),
                                         min_size=k, max_size=k)))
        span = prm.v_max - prm.v_min
        voltage = np.array(draw(st.lists(
            st.floats(prm.v_min - 0.5 * span, prm.v_max + 0.5 * span), min_size=k, max_size=k)))
        r = draw(st.sampled_from([1e-4, 1e-2]))
        n = prm.n_rc + 1
        q = draw(st.floats(1e-10, 1e-4)) * np.eye(n)
        p0 = np.diag(draw(st.lists(st.floats(1e-8, 0.1), min_size=n, max_size=n)))
        v0 = prm.v_min + draw(st.floats(-0.2, 1.2)) * span
        start = CellState(v0, draw(st.lists(st.floats(-0.1, 0.1), min_size=n - 1,
                                            max_size=n - 1)))
        cfg = EkfConfig(q, r, p0, CellState.rest(prm.v_min, prm.n_rc))
        cells.append((EkfState(start, p0), prm, cfg, voltage, current, dt))
    return cells


@PROPERTY
@given(pack_cells())
def test_final_covariance_is_symmetric_and_psd(cells):
    """The batch kernel leaves P exactly symmetric and provably PSD, whatever it measured."""
    result, error = outcome(lambda: one_by_one(cells))
    if error is not None:
        return
    for *_, final, _ in result:
        p = final.covariance
        assert np.array_equal(bits(p), bits(p.T))
        assert _is_psd(p.tolist())

