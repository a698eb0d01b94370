"""Property tests of the exact charge map and of the fused filter kernel.

The examples are derandomized so the suite is reproducible; raise
``max_examples`` locally to explore further.
"""

import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cellsoc import (  # noqa: E402
    CellFilter,
    CellParameters,
    CellState,
    EkfConfig,
    EkfState,
    MonotoneCurve,
    RcGroup,
    Trace,
    charge_map,
    correct,
    make_filter,
    predict,
    reconstruct_v_dyn,
    run_filter,
    simulate,
    soc_from_vqst,
    vqst_from_soc,
)
from cellsoc.curves import _interp_lines  # noqa: E402
from cellsoc.model import DEFAULT_VQST_GUARD, _running_charge, interval_currents  # noqa: E402
from helpers import (  # noqa: E402
    _is_psd,
    assert_run_filter_matches_step_chain,
    make_cell,
    make_resistor,
    random_cell,
    rc_recurrence,
    running_charge_loop,
    running_charge_vqst,
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
@given(cells(), st.lists(st.floats(0.0, 0.5), max_size=10),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=10))
def test_a_filters_soc_is_soc_from_vqst_bit_for_bit(cell, beyond, drawn):
    """``CellFilter.soc`` gives ``soc_from_vqst``'s bits, whose clamp warning
    is silenced: at every capacitance grid point and its neighbours, both
    window ends, up to 0.5 V past either end, ±0.0 and drawn floats."""
    grid = cell.capacitance.grid.tolist()
    points = [x for g in grid for x in (math.nextafter(g, -math.inf), g, math.nextafter(g, math.inf))]
    points += [cell.v_min, cell.v_max, 0.0, -0.0, *drawn]
    points += [x for d in beyond for x in (cell.v_min - d, cell.v_max + d)]
    cfg = EkfConfig.default(cell)
    held = CellFilter(cell, cfg)
    for v in points:
        held.ekf = EkfState(CellState(v, np.zeros(cell.n_rc)), cfg.initial_covariance_p0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = soc_from_vqst(cell, v)
        assert float_bits(held.soc) == float_bits(want), v


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
    past the resistor curve (+-50 A), read with up to 5 mV of noise, and filtered
    with a measurement noise of 1e-4 or 1e300 V^2."""
    cell = random_cell(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    n = draw(st.integers(2, 30))
    gaps = draw(st.lists(st.one_of(st.floats(0.05, 10.0), st.floats(1e3, 1e6)),
                         min_size=n - 1, max_size=n - 1))
    current = draw(st.lists(st.floats(-80.0, 80.0), min_size=n, max_size=n))
    noise = draw(st.lists(st.floats(-0.005, 0.005), min_size=n, max_size=n))
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    start = CellState.rest(vqst_from_soc(cell, draw(fractions)), cell.n_rc)
    truth = simulate(cell, Trace(t, np.array(current)), start).trace
    r = draw(st.sampled_from([1e-4, 1e300]))  # at 1e300 every correction rounds to nothing
    base = EkfConfig.default(cell, initial_soc=draw(fractions))
    cfg = EkfConfig(base.process_noise_q, r, base.initial_covariance_p0, base.initial_state)
    return cell, Trace(t, truth.current, truth.voltage + np.array(noise)), cfg


@PROPERTY
@given(filter_cases())
def test_run_filter_equals_the_step_chain(case):
    assert_run_filter_matches_step_chain(*case)


@PROPERTY
@given(filter_cases(), st.data())
def test_per_step_covariance_stays_symmetric_and_psd(case, data):
    """Any predict/correct stream: every sample is predicted over its gap, then
    corrected zero, one or two times with its measurement."""
    cell, trace, cfg = case
    t, current, voltage = trace.timestamps, trace.current, trace.voltage
    i_eff = interval_currents(current)
    corrections = data.draw(st.lists(st.integers(0, 2), min_size=t.size, max_size=t.size))

    def check(state):
        p = state.covariance
        assert np.array_equal(p.view(np.int64), p.T.view(np.int64))
        assert _is_psd(p.tolist())

    state = make_filter(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(t.size):
            if k > 0:
                state = predict(state, cell, i_eff[k - 1], float(t[k] - t[k - 1]), cfg)
                check(state)
            for _ in range(corrections[k]):
                state = correct(state, cell, float(voltage[k]), float(current[k]), cfg)
                check(state)


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
@given(cells(), st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=20))
def test_inverse_integral_array_is_the_scalar_form_bit_for_bit(cell, fracs):
    """On random charges, every knot integral and its neighbours, 0, the total
    and beyond both ends."""
    cap = cell.capacitance
    knots = np.array(cap._tables[2])
    q = np.concatenate((
        np.array(fracs) * knots[-1],
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [0.0, knots[-1], -knots[-1], 2.0 * knots[-1]],
    ))
    want = np.array([cap.inverse_integral(float(qi))[0] for qi in q])
    assert np.array_equal(cap.inverse_integral_array(q).view(np.int64), want.view(np.int64))


FLOAT_MAX = float(np.finfo(float).max)


def float_bits(x: float) -> int:
    return int(np.array([x], dtype=float).view(np.int64)[0])


@st.composite
def interp_curves(draw):
    """A curve on 2-300 strictly increasing grid points, with flat segments.
    Grid and values span up to the whole float range, where a segment's slope
    overflows and np.interp's NaN fallback runs."""
    n = draw(st.integers(2, 300))
    bound = draw(st.sampled_from([10.0, 1e300, FLOAT_MAX]))
    finite = st.floats(-bound, bound)
    grid = sorted(draw(st.lists(finite, min_size=n, max_size=n, unique=True)))
    values = draw(st.lists(finite, min_size=n, max_size=n))
    for k, flat in enumerate(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))):
        if flat:
            values[k + 1] = values[k]
    return grid, values


def compiled_interp():
    """``_interp_lines`` compiled on its own as ``lookup(x, g, v) -> y``."""
    body = "".join(f"    {line}\n" for line in _interp_lines("x", "y", "g", "v"))
    namespace = {"bisect_right": bisect_right}
    exec(f"def lookup(x, g, v):\n{body}    return y\n", namespace)
    return namespace["lookup"]


INTERP = compiled_interp()


@PROPERTY
@given(interp_curves(), st.lists(st.floats(), max_size=10))
@example(([-FLOAT_MAX, 0.0, FLOAT_MAX], [1.0, 1.0, -FLOAT_MAX]), [-1e308, 1e308])
@example(([-FLOAT_MAX, FLOAT_MAX], [-FLOAT_MAX, FLOAT_MAX]), [-1e308, 0.0, 1e308])
@example(([-1e308, 1e308], [5.0, 5.0]), [-1e307, 1e307])
def test_float_lookup_is_np_interp_bit_for_bit(curve, extra):
    """The lookup that ``_interp_lines`` writes gives ``np.interp``'s bits on a
    curve's ``_lists`` for a Python float: at every grid point and its
    neighbours, both ends and beyond, ±0.0, ±inf, NaN and drawn points.
    ``eval`` gives them as a Python float for those floats and for an int or
    np.float64 argument."""
    grid, values = curve
    with np.errstate(over="ignore", invalid="ignore"):
        c = MonotoneCurve(grid, values)
    ends = [grid[0], grid[-1], grid[0] - 1.0, grid[-1] + 1.0, -FLOAT_MAX, FLOAT_MAX]
    points = [x for g in grid for x in (g, math.nextafter(g, -math.inf), math.nextafter(g, math.inf))]
    points += ends + [0.0, -0.0, math.inf, -math.inf, math.nan] + extra
    for x in points:
        assert float_bits(INTERP(x, *c._lists)) == float_bits(float(np.interp(x, grid, values))), x
    points += [int(x) for x in points if abs(x) < 1e18] + [np.float64(x) for x in points]
    for x in points:
        got = c.eval(x)
        assert type(got) is float
        assert float_bits(got) == float_bits(float(np.interp(x, grid, values))), x


def profile_trace(gaps, fracs, scale):
    """A profile with the drawn sample gaps whose currents are ``scale * frac``."""
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    return Trace(t, scale * np.array(fracs[:t.size]))


rest_or_current = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
gaps = st.lists(st.floats(0.5, 600.0), min_size=1, max_size=30)


@PROPERTY
@given(cells(), fractions, gaps, st.lists(rest_or_current, min_size=31, max_size=31))
def test_simulate_conserves_charge(cell, frac, dts, fracs):
    """Q(v_k) is the running charge Q(v0) + sum of the interval charges.

    Currents are scaled so the charge moved in total stays under 0.4 delta_q
    from a SoC within 0.05 of one half: the profile never clamps.
    """
    v0 = vqst_from_soc(cell, 0.45 + 0.1 * frac)
    profile = profile_trace(dts, fracs, 0.4 * cell.delta_q / (30 * 600.0))
    res = simulate(cell, profile, CellState(v0, np.zeros(cell.n_rc)))
    assert not res.saturation_events
    charges = interval_currents(profile.current) * np.diff(profile.timestamps)
    running = np.cumsum(np.concatenate(([charge(cell, v0)], charges)))
    moved = cell.capacitance.integral_array(res.v_qst)
    assert np.max(np.abs(moved - running)) <= 1e-12 * cell.delta_q


@PROPERTY
@given(cells(), fractions, gaps, st.lists(rest_or_current, min_size=31, max_size=31))
def test_simulate_saturates_at_the_bounds(cell, frac, dts, fracs):
    """v_qst stays within the guarded window, each event sits at a clamped
    sample with its bound voltage, and a rest moves nothing."""
    v0 = inside(cell, frac)
    profile = profile_trace(dts, fracs, 3.0 * cell.delta_q / 600.0)
    res = simulate(cell, profile, CellState(v0, np.zeros(cell.n_rc)))
    lo, hi = cell.v_min - DEFAULT_VQST_GUARD, cell.v_max + DEFAULT_VQST_GUARD
    assert np.all((lo <= res.v_qst) & (res.v_qst <= hi))
    want, events = running_charge_vqst(cell, profile.timestamps, profile.current, v0)
    assert res.saturation_events == events
    t = profile.timestamps.tolist()
    for t_k, bound in events:
        assert bound in (lo, hi) and res.v_qst[t.index(t_k)] == bound
    rest = np.flatnonzero(interval_currents(profile.current) == 0.0) + 1
    assert np.array_equal(res.v_qst[rest].view(np.int64), res.v_qst[rest - 1].view(np.int64))
    assert np.array_equal(res.v_qst.view(np.int64), want.view(np.int64))


# Interval charges in units of the window's charge: rests, steps that mostly
# stay inside, and steps of two windows, which clamp at a bound wherever the
# sum stood; a run of them is a run of clamps at that bound.
window_steps = st.one_of(st.just(0.0), st.floats(-0.3, 0.3), st.sampled_from([-2.0, 2.0]),
                         st.floats(-3.0, 3.0))


@PROPERTY
@given(st.floats(-0.2, 1.2), st.lists(window_steps, min_size=1, max_size=40),
       st.floats(1.0, 1e5), st.floats(-1e5, 1e5))
@example(0.5, [2.0], 1e4, 0.0)
@example(0.9, [0.0, 2.0, 2.0, 0.0, -0.5, -2.0, -2.0, 0.0, 0.25], 3e4, 1e3)
def test_running_charge_is_the_loop_bit_for_bit(frac, steps, width, q_lo):
    """The cumsum and its clamp loop give the per-sample loop's sums and
    clamps. The start may lie outside the window, which is never clamped;
    the examples clamp on a 2-sample profile's only interval, and clamp twice
    at each bound with rests between and a re-entry after each run."""
    q_hi = q_lo + width
    q0 = q_lo + frac * width
    charges = np.array(steps) * width
    got, clamped = _running_charge(q0, charges, q_lo, q_hi)
    want, want_clamped = running_charge_loop(q0, charges, q_lo, q_hi)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert clamped.tolist() == want_clamped


@PROPERTY
@given(cells(), fractions, st.lists(window_steps, min_size=1, max_size=30))
@example(make_cell(), 0.5, [2.0])
@example(make_cell(), 0.2, [0.0, 0.0, -2.0, -2.0, 0.0, 0.5, 2.0, 2.0, 0.0, -0.5])
def test_simulate_sums_charge_like_the_loop(cell, frac, steps):
    """simulate's running sum is the per-sample loop's, bit for bit, and so
    are its v_qst and saturation events. Samples are 1 s apart, and each
    sample's current is its interval's step of window charge, the first
    sample repeating the first step, so the first interval's charge is its
    step."""
    lo, hi = cell.v_min - DEFAULT_VQST_GUARD, cell.v_max + DEFAULT_VQST_GUARD
    q_lo, q_hi = charge(cell, lo), charge(cell, hi)
    v0 = inside(cell, frac)
    current = (q_hi - q_lo) * np.array([steps[0], *steps])
    t = np.arange(float(current.size))
    charges = interval_currents(current) * np.diff(t)
    got, clamped = _running_charge(charge(cell, v0), charges, q_lo, q_hi)
    want_sums, want_clamped = running_charge_loop(charge(cell, v0), charges, q_lo, q_hi)
    assert np.array_equal(got.view(np.int64), want_sums.view(np.int64))
    assert clamped.tolist() == want_clamped
    res = simulate(cell, Trace(t, current), CellState(v0, np.zeros(cell.n_rc)))
    want, events = running_charge_vqst(cell, t, current, v0)
    assert res.saturation_events == events
    assert [t_k for t_k, _ in events] == t[want_clamped].tolist()
    assert np.array_equal(res.v_qst.view(np.int64), want.view(np.int64))


@st.composite
def rc_cases(draw):
    """2 to 300 samples 1 ms to 10 s apart, up to three gaps of 1e3 to 1e6 s,
    1-3 groups with tau from 0.01 s to 1e4 s, from rest or a drawn state.
    dt/tau runs from 1e-7 to 1e8: a decay can round to 1 or underflow to 0
    (dt/tau > 745)."""
    n = draw(st.integers(2, 300))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    for k in draw(st.lists(st.integers(0, n - 2), max_size=3)):
        gaps[k] = draw(st.floats(1e3, 1e6))
    current = draw(st.lists(st.floats(-80.0, 80.0), min_size=n, max_size=n))
    groups = draw(st.lists(st.builds(RcGroup, st.floats(1e-4, 0.1), st.floats(0.01, 1e4)),
                           min_size=1, max_size=3))
    initial = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=len(groups),
                                        max_size=len(groups)))
    return np.concatenate(([0.0], np.cumsum(gaps))), np.array(current), groups, initial


@PROPERTY
@given(rc_cases())
@example(([0.0, 1e6], [3.0, -2.0], [RcGroup(0.01, 0.01)], [0.5]))
@example(([0.0, 0.5, 3000.5], [1.0, -4.0, 2.0], [RcGroup(0.02, 1.0), RcGroup(0.01, 2.0)],
          [-0.3, 0.2]))
def test_rc_scan_agrees_with_the_per_sample_recurrence(case):
    """The prefix scan adds in another order than the per-sample recurrence,
    so the columns agree to rounding: measured at most 4.5e-15 of the
    column's largest |x| over 3,000 random draws of these cases (the worst
    where tau >> dt, as the recurrence rounds once per sample)."""
    t, current, groups, initial = case
    got = reconstruct_v_dyn(t, current, groups, initial)
    want = rc_recurrence(t, current, groups, initial)
    assert got.shape == want.shape and np.all(np.isfinite(got))
    assert np.array_equal(got[0], want[0])
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-14 * np.max(np.abs(want), axis=0))
