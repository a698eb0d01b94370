"""Property tests of the exact charge map and of the fused filter kernel.

The examples are derandomized so the suite is reproducible; raise
``max_examples`` locally to explore further.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cellsoc import (  # noqa: E402
    CellParameters,
    CellState,
    EkfConfig,
    EkfState,
    MonotoneCurve,
    RcGroup,
    Trace,
    charge_map,
    predict,
    run_filter,
    simulate,
    soc_from_vqst,
    vqst_from_soc,
)
from helpers import (  # noqa: E402
    assert_run_filter_matches_step_chain,
    make_resistor,
    random_cell,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def cells(draw):
    """A valid cell whose capacitance is a random positive piecewise-linear curve."""
    n = draw(st.integers(2, 10))
    v_min = draw(st.floats(2.5, 3.0))
    widths = draw(st.lists(st.floats(0.01, 0.2), min_size=n - 1, max_size=n - 1))
    values = draw(st.lists(st.floats(1000.0, 40000.0), min_size=n, max_size=n))
    grid = v_min + np.concatenate(([0.0], np.cumsum(widths)))
    return CellParameters.from_curves(
        float(grid[0]), float(grid[-1]), MonotoneCurve(grid, values),
        (RcGroup(0.01, 30.0), RcGroup(0.02, 600.0)), make_resistor(),
    )


def charge(cell: CellParameters, v: float) -> float:
    return cell.capacitance.integral_and_value(v)[0]


def inside(cell: CellParameters, frac: float) -> float:
    return cell.v_min + frac * (cell.v_max - cell.v_min)


fractions = st.floats(0.0, 1.0)
# Charges up to 1.5 window capacities move the state past either end of the
# window, where the map continues along the linear extension of Q.
charge_fractions = st.floats(-1.5, 1.5)


@PROPERTY
@given(cells(), fractions, charge_fractions)
def test_charge_map_moves_exactly_the_charge(cell, frac, q_frac):
    v0 = inside(cell, frac)
    dq = q_frac * cell.delta_q
    v1, ratio = charge_map(cell.capacitance, v0, dq)
    assert abs((charge(cell, v1) - charge(cell, v0)) - dq) <= 1e-12 * cell.delta_q
    cap = cell.capacitance
    assert ratio == pytest.approx(cap.eval(v0) / cap.eval(v1), rel=1e-12)


@PROPERTY
@given(cells(), fractions, charge_fractions, charge_fractions)
def test_charge_map_composes(cell, frac, a_frac, b_frac):
    v0 = inside(cell, frac)
    a, b = a_frac * cell.delta_q, b_frac * cell.delta_q
    v_ab, _ = charge_map(cell.capacitance, v0, a + b)
    v_a, _ = charge_map(cell.capacitance, v0, a)
    v_a_b, _ = charge_map(cell.capacitance, v_a, b)
    assert abs(v_ab - v_a_b) <= 1e-12


@PROPERTY
@given(cells(), fractions)
def test_vqst_from_soc_inverts_soc_from_vqst(cell, frac):
    assert abs(soc_from_vqst(cell, vqst_from_soc(cell, frac)) - frac) <= 1e-12
    v = inside(cell, frac)
    assert abs(vqst_from_soc(cell, soc_from_vqst(cell, v)) - v) <= 1e-12


@PROPERTY
@given(cells(), st.one_of(st.sampled_from([0.0, 1.0]), fractions))
def test_soc_is_exactly_the_window_integral(cell, frac):
    v = min(inside(cell, frac), cell.v_max)
    expected = cell.capacitance.integrate(cell.v_min, v) / cell.delta_q
    assert soc_from_vqst(cell, v) == expected


@PROPERTY
@given(cells(), fractions, fractions)
def test_long_gap_predict_is_one_exact_step(cell, soc0, soc1):
    dt = 1e6
    current = (soc1 - soc0) * cell.delta_q / dt  # lands inside the window
    cfg = EkfConfig.default(cell)
    comps = np.array([0.01, -0.02])
    ekf = EkfState(CellState(vqst_from_soc(cell, soc0), comps), cfg.initial_covariance_p0)
    out = predict(ekf, cell, current, dt, cfg)

    v1, f00 = charge_map(cell.capacitance, ekf.mean.v_qst, current * dt)
    decay = np.exp(-dt / cell.taus)
    assert out.mean.v_qst == v1
    assert np.array_equal(out.mean.v_dyn_components,
                          comps * decay + cell.rs * current * (1.0 - decay))
    assert abs(soc_from_vqst(cell, out.mean.v_qst) - soc1) <= 1e-12
    f = np.concatenate(([f00], decay))
    expected = np.outer(f, f) * ekf.covariance + cfg.process_noise_q * dt
    assert np.allclose(out.covariance, expected, rtol=1e-15, atol=0.0)


@st.composite
def filter_cases(draw):
    """A random cell measured along a trace with gaps up to ~12 days and currents
    past the resistor curve (+-50 A), read with up to 5 mV of noise."""
    cell = random_cell(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    n = draw(st.integers(2, 30))
    gaps = draw(st.lists(st.one_of(st.floats(0.05, 10.0), st.floats(1e3, 1e6)),
                         min_size=n - 1, max_size=n - 1))
    current = draw(st.lists(st.floats(-80.0, 80.0), min_size=n, max_size=n))
    noise = draw(st.lists(st.floats(-0.005, 0.005), min_size=n, max_size=n))
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    start = CellState.rest(vqst_from_soc(cell, draw(fractions)), cell.n_rc)
    truth = simulate(cell, Trace(t, np.array(current)), start).trace
    r = draw(st.sampled_from([1e-4, np.inf]))
    base = EkfConfig.default(cell, initial_soc=draw(fractions))
    cfg = EkfConfig(base.process_noise_q, r, base.initial_covariance_p0, base.initial_state)
    return cell, Trace(t, truth.current, truth.voltage + np.array(noise)), cfg


@PROPERTY
@given(filter_cases())
def test_run_filter_equals_the_step_chain(case):
    assert_run_filter_matches_step_chain(*case)


@PROPERTY
@given(cells(), st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=20))
def test_integral_array_is_the_scalar_form_bit_for_bit(cell, fracs):
    """On random points, every grid knot and its neighbours, and both window ends."""
    cap = cell.capacitance
    grid = cap.grid
    x = np.concatenate((
        cell.v_min + np.array(fracs) * (cell.v_max - cell.v_min),
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        [cell.v_min, cell.v_max],
    ))
    want = np.array([cap.integral_and_value(float(xi))[0] for xi in x])
    assert np.array_equal(cap.integral_array(x).view(np.int64), want.view(np.int64))


@PROPERTY
@given(cells(), st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=20))
def test_segments_give_the_scalar_forms_bit_for_bit(cell, fracs):
    """The segment expressions, end segments included, on random points, every
    knot and its neighbours, for both the integral and its inverse."""
    cap = cell.capacitance
    table = cap.segments()
    grid, knots = cap.grid, table[4, 1:]

    def around(points, lo, hi):
        points = np.asarray(points)
        return np.concatenate((lo + np.array(fracs) * (hi - lo), points,
                               np.nextafter(points, -np.inf), np.nextafter(points, np.inf)))

    def bits(*xs):
        return np.array(xs, dtype=float).view(np.int64).tolist()

    for x in around(grid, cell.v_min, cell.v_max).tolist():
        g, c, dc, dg, k = table[:, bisect_right(grid.tolist(), x)].tolist()
        y = c + dc * (x - g) / dg
        assert bits(k + 0.5 * (c + y) * (x - g), y) == bits(*cap.integral_and_value(x))
    for q in around(knots, 0.0, cell.delta_q).tolist():
        g, c, dc, dg, k = table[:, bisect_right(knots.tolist(), q)].tolist()
        dq = q - k
        c1 = math.sqrt(max(c * c + 2.0 * (dc / dg) * dq, 0.0))
        assert bits(g + 2.0 * dq / (c + c1), c1) == bits(*cap.inverse_integral(q))
