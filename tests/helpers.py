"""Synthetic cells and profiles shared across the test suite."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from operator import getitem, mul

import numpy as np

from cellsoc import (
    CellParameters,
    CellState,
    EkfState,
    InvalidInputError,
    MonotoneCurve,
    OutOfRangeWarning,
    RcGroup,
    NumericalFailureError,
    Trace,
    estimate_soc,
    identification_profile,
    make_filter,
    predict,
    run_filter,
    simulate,
)
from cellsoc.estimator import PSD_TOLERANCE, _correct
from cellsoc.model import (
    DEFAULT_VQST_GUARD, _current_clamp_message, _soc_clamp_message, charge_map,
    interval_currents)


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


# The covariance step of the fused kernel in its list form, the reference for
# the straight-line code that estimator._covariance_steps generates. P is a
# list of rows; Q*dt too. Every sum adds left to right, as the kernel does.


def left_to_right(terms):
    """terms[0] + terms[1] + ..., added in order from the first term.

    No terms sum to 0.0, so that x - left_to_right([]) is x bit for bit.
    """
    total = None
    for x in terms:
        total = x if total is None else total + x
    return 0.0 if total is None else total


def list_predict(p, f, q_dt):
    """F P F' + Q*dt for the diagonal f, with the predicted-covariance check."""
    m = len(f)
    p = [
        [fa * fb * x + qx for fb, x, qx in zip(f, row, q_row)]
        for fa, row, q_row in zip(f, p, q_dt)
    ]
    # Scaling by a diagonal and adding PSD noise preserves
    # semidefiniteness, so finiteness and the diagonal suffice here.
    diagonal = map(getitem, p, range(m))
    if not math.isfinite(left_to_right(map(left_to_right, p))) or min(diagonal) < -PSD_TOLERANCE:
        raise NumericalFailureError("predicted covariance lost positive semidefiniteness")
    return p


def list_correct(p, r):
    """The Joseph update with H = 1' and its PSD proof; returns (P, gain)."""
    p1 = list(map(left_to_right, p))  # P 1
    s = left_to_right(p1) + r
    if s <= 0.0 or not math.isfinite(s):
        raise NumericalFailureError(f"innovation variance is not positive ({s})")
    gain = [x / s for x in p1]
    # Joseph form with H = 1': P - K p' - p K' + s K K'.
    p = [
        [x - (ka * pb + pa * kb) + ka * kb * s for x, pb, kb in zip(row, p1, gain)]
        for row, ka, pa in zip(p, gain, p1)
    ]
    if not _is_psd(p):
        raise NumericalFailureError("corrected covariance lost positive semidefiniteness")
    return p, gain


def list_filter_series(ekf, params, cfg, voltage, current, dt, i_pred):
    """estimator._filter_series in list form, the reference for its generated loop.

    Each sample past the first ``len(voltage) - len(dt)`` is predicted through
    ``charge_map``, ``math.exp`` decays and ``list_predict``; every sample is
    corrected through ``list_correct`` unless r is infinite. No step is reused.
    Raises and warns as the kernel does; returns what it returns.
    """
    res = params.resistor
    m = params.n_rc + 1
    dyn = ekf.mean.v_dyn_components.tolist()
    if len(dyn) != m - 1:
        raise InvalidInputError(f"state has {len(dyn)} RC components, parameters define {m - 1}")
    if ekf.covariance.shape != (m, m):
        raise InvalidInputError(f"covariance must be {m}x{m}, got {ekf.covariance.shape}")
    v, p = ekf.mean.v_qst, ekf.covariance.tolist()
    q, r = cfg.process_noise_q.tolist(), cfg.measurement_noise_r
    lo, hi = params.v_min - DEFAULT_VQST_GUARD, params.v_max + DEFAULT_VQST_GUARD
    voltage, current, dt, i_pred = (np.asarray(a, dtype=float).tolist()
                                    for a in (voltage, current, dt, i_pred))
    drops = res.eval(np.asarray(current)).tolist()
    extra = max(len(voltage) - len(dt), 0)
    innovations, vqst = [], []
    for k, (z, i, drop) in enumerate(zip(voltage, current, drops)):
        if k >= extra:
            h, u = dt[k - extra], i_pred[k - extra]
            v, f0 = charge_map(params.capacitance, v, u * h)
            if v < lo:
                v = lo
            elif v > hi:
                v = hi
            decay = [math.exp(-h / tau) for tau in params.taus.tolist()]
            dyn = [c * d + rj * u * (1.0 - d) for c, d, rj in zip(dyn, decay, params.rs.tolist())]
            p = list_predict(p, [f0, *decay], [[x * h for x in row] for row in q])
        if i < res.x_min or i > res.x_max:
            warnings.warn(_current_clamp_message(res), OutOfRangeWarning)
        innovation = z - ((v + left_to_right(dyn) if dyn else v) + drop)
        if not math.isinf(r):
            p, gain = list_correct(p, r)
            v += gain[0] * innovation
            dyn = [c + g * innovation for c, g in zip(dyn, gain[1:])]
            if not math.isfinite(v) or not math.isfinite(left_to_right(dyn)):
                raise InvalidInputError("cell state must be finite")
        if v < params.v_min or v > params.v_max:
            warnings.warn(_soc_clamp_message(params), OutOfRangeWarning)
        innovations.append(innovation)
        vqst.append(v)
    vqst = np.array(vqst)
    soc = (params.capacitance.integral_array(np.clip(vqst, params.v_min, params.v_max))
           / params.delta_q)
    return soc, np.array(innovations), vqst, EkfState(CellState(v, np.array(dyn)), np.array(p))


def near_boundary_draws():
    """(kind, eigenvalues, P): 3,000 symmetric 2x2 to 4x4 matrices, a third each
    positive definite, near-singular and indefinite."""
    rng = np.random.default_rng(17)
    for k in range(3000):
        n = int(rng.integers(2, 5))
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eig = rng.uniform(1e-3, 1.0, n) * 10.0 ** rng.uniform(-4, 1)
        kind = k % 3
        if kind == 1:  # near-singular: one eigenvalue at or within 1e-13 of zero
            eig[0] = rng.choice([0.0, 1e-13, -1e-13])
        elif kind == 2:  # indefinite, down to twice the tolerance below zero
            eig[0] = -(10.0 ** rng.uniform(-9.7, 0.0))
        p = basis @ np.diag(eig) @ basis.T
        yield kind, eig, 0.5 * (p + p.T)


# Two near-singular 3x3 covariances (the second has its least eigenvalue at
# -9.99991e-11) that np.linalg.cholesky(P + PSD_TOLERANCE * I) accepted with
# OpenBLAS 0.3.31; _is_psd rounds its pivots in another order and rejects them.
OPENBLAS_ACCEPTED = (
    [[0.39842188653103633, 0.21303985456058977, -0.5319934592760766],
     [0.21303985456058977, 0.4906024609249652, 0.12901319548209203],
     [-0.5319934592760766, 0.12901319548209203, 1.1641995953325273]],
    [[4.5155238226933365, -2.1069458421215943, 3.466161623713374],
     [-2.1069458421215943, 8.26894945800384, 1.4064190939055128],
     [3.466161623713374, 1.4064190939055128, 3.9155530860793277]],
)


def _is_psd(p: list[list[float]]) -> bool:
    """Whether p + PSD_TOLERANCE * I has a Cholesky factor, on plain floats.

    The pivot test is LAPACK's, as run by np.linalg.cholesky: a pivot that is
    not strictly positive (or is NaN) fails.
    """
    low: list[list[float]] = []
    for i, row in enumerate(p):
        li: list[float] = []
        for lj, x in zip(low, row):  # lj ends with its diagonal entry
            li.append((x - left_to_right(map(mul, li, lj))) / lj[-1])
        d = row[i] + PSD_TOLERANCE - left_to_right(map(mul, li, li))
        if not d > 0.0:
            return False
        li.append(math.sqrt(d))
        low.append(li)
    return True


def oracle_soc_text(cell_id, times, soc_est, soc_ref, innovations) -> str:
    """A SoC CSV formed row by row with one ``!r`` per float: the bytes that
    ``traceio.save_soc_rows`` must write."""
    columns = (np.asarray(c, dtype=float).tolist() for c in (times, soc_est, soc_ref, innovations))
    lines = ["t_s,cell_id,soc_est,soc_ref,v_innov"]
    lines += [f"{t!r},{cell_id},{soc!r},{ref!r},{innov!r}" for t, soc, ref, innov in zip(*columns)]
    return "\n".join(lines) + "\n"


def oracle_trace_text(trace: Trace) -> str:
    """A trace CSV formed row by row with one ``!r`` per float: the bytes that
    ``traceio.save_trace`` must write."""
    lines = []
    if trace.voltage is None:
        lines.append("t_s,current_a")
        for t, i in zip(trace.timestamps.tolist(), trace.current.tolist()):
            lines.append(f"{t!r},{i!r}")
    else:
        lines.append("t_s,current_a,voltage_v")
        for t, i, v in zip(
            trace.timestamps.tolist(), trace.current.tolist(), trace.voltage.tolist()
        ):
            lines.append(f"{t!r},{i!r},{v!r}")
    return "\n".join(lines) + "\n"
