"""Synthetic cells and profiles shared across the test suite."""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np

from cellsoc import (
    CellParameters,
    CellState,
    MonotoneCurve,
    RcGroup,
    Trace,
    estimate_soc,
    identification_profile,
    make_filter,
    predict,
    run_filter,
    simulate,
)
from cellsoc.estimator import _correct
from cellsoc.model import interval_currents


def make_capacitance(
    v_min=2.9, v_max=3.6, base=4000.0, bump=30000.0, center=3.3, width=0.08, n=256
) -> MonotoneCurve:
    """Gaussian-bump capacitance: most charge concentrated around one voltage."""
    grid = np.linspace(v_min, v_max, n)
    values = base + bump * np.exp(-0.5 * ((grid - center) / width) ** 2)
    return MonotoneCurve(grid, values)


def make_resistor(r0=0.03, cubic=0.0, i_max=50.0, n=129) -> MonotoneCurve:
    """Odd polynomial resistor characteristic through (0, 0)."""
    grid = np.linspace(-i_max, i_max, n)
    return MonotoneCurve(grid, r0 * grid + cubic * grid**3)


def make_cell(
    v_min=2.9,
    v_max=3.6,
    base=4000.0,
    bump=30000.0,
    center=3.3,
    width=0.08,
    rc=((0.012, 60.0), (0.02, 700.0)),
    r0=0.03,
    cubic=0.0,
    nominal_capacity=None,
) -> CellParameters:
    return CellParameters.from_curves(
        v_min,
        v_max,
        make_capacitance(v_min, v_max, base, bump, center, width),
        tuple(RcGroup(r, tau) for r, tau in rc),
        make_resistor(r0, cubic),
        nominal_capacity=nominal_capacity,
    )


def random_cell(rng: np.random.Generator) -> CellParameters:
    """A random valid two-group cell with A123-like magnitudes."""
    v_min = rng.uniform(2.7, 3.0)
    v_max = v_min + rng.uniform(0.5, 0.9)
    tau1 = rng.uniform(50.0, 120.0)
    tau2 = rng.uniform(450.0, 1500.0)
    return make_cell(
        v_min=v_min,
        v_max=v_max,
        base=rng.uniform(2500.0, 6000.0),
        bump=rng.uniform(12000.0, 40000.0),
        center=rng.uniform(v_min + 0.25 * (v_max - v_min), v_min + 0.75 * (v_max - v_min)),
        width=rng.uniform(0.05, 0.15),
        rc=((rng.uniform(0.006, 0.02), tau1), (rng.uniform(0.01, 0.03), tau2)),
        r0=rng.uniform(0.01, 0.05),
    )


def identification_trace(
    params: CellParameters,
    charge_amplitudes=(2.0,),
    sample_period=4.0,
    rest=9000.0,
    t_empty=21600.0,
    noise_mv=0.0,
    seed=0,
):
    """Simulate the pulse-test profile on a cell starting empty and at rest.

    Returns (measured trace, simulation result). Charge moves the cell's full
    delta_q so the voltage window is swept end to end.
    """
    profile = identification_profile(
        charge_amplitudes,
        delta_q=params.delta_q,
        t_empty=t_empty,
        rest1=rest,
        rest2=rest,
        sample_period=sample_period,
    )
    initial = CellState.rest(params.v_min, params.n_rc)
    result = simulate(params, profile, initial)
    trace = result.trace
    if noise_mv > 0.0:
        rng = np.random.default_rng(seed)
        noisy = trace.voltage + 1e-3 * noise_mv * rng.standard_normal(len(trace))
        trace = Trace(trace.timestamps, trace.current, noisy)
    return trace, result


def relative_rms(estimate: np.ndarray, truth: np.ndarray) -> float:
    estimate = np.asarray(estimate, float)
    truth = np.asarray(truth, float)
    return float(np.sqrt(np.mean((estimate - truth) ** 2)) / np.sqrt(np.mean(truth**2)))


def step_chain(params, trace, cfg):
    """run_filter spelled out as the per-step API: predict, then _correct."""
    t, current, voltage = trace.timestamps, trace.current, trace.voltage
    i_eff = interval_currents(current)
    soc, innov, v_qst = (np.empty(t.size) for _ in range(3))
    state = make_filter(cfg)
    for k in range(t.size):
        if k > 0:
            state = predict(state, params, i_eff[k - 1], float(t[k] - t[k - 1]), cfg)
        state, innov[k] = _correct(state, params, float(voltage[k]), float(current[k]), cfg)
        soc[k] = estimate_soc(state, params)
        v_qst[k] = state.mean.v_qst
    return soc, innov, v_qst, state


def warning_counts(fn, *args):
    """fn(*args) and a count of every warning it raised, by category and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, Counter((w.category, str(w.message)) for w in caught)


def assert_run_filter_matches_step_chain(params, trace, cfg):
    """run_filter equals the per-step chain within 1e-12, with the same warnings."""
    run, got = warning_counts(run_filter, params, trace, cfg)
    (soc, innov, v_qst, final), expected = warning_counts(step_chain, params, trace, cfg)
    assert got == expected
    assert np.max(np.abs(run.soc - soc)) <= 1e-12
    assert np.max(np.abs(run.innovations - innov)) <= 1e-12
    assert np.max(np.abs(run.v_qst - v_qst)) <= 1e-12
    assert abs(run.final.mean.v_qst - final.mean.v_qst) <= 1e-12
    assert np.max(np.abs(run.final.mean.v_dyn_components - final.mean.v_dyn_components)) <= 1e-12
    assert np.max(np.abs(run.final.covariance - final.covariance)) <= 1e-12
    assert np.array_equal(run.final.covariance, run.final.covariance.T)
