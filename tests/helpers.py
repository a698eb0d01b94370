"""Synthetic cells and profiles shared across the test suite."""

from __future__ import annotations

import functools
import math
import struct
import warnings
from collections import Counter
from operator import getitem, mul

import numpy as np

from cellsoc import (
    CellFilter,
    CellParameters,
    CellState,
    ConfigurationError,
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
    run_filter,
    simulate,
)
from cellsoc.estimator import (
    PSD_TOLERANCE, _compiled, _decay_product_lines, _entries, _indent, _predict_lines, _tuple,
    _update_lines)
from cellsoc.model import (
    DEFAULT_VQST_GUARD, _check_finite, _current_clamp_message, _soc_clamp_message, charge_map,
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


def running_charge_loop(q0, charges, q_lo, q_hi):
    """simulate's running charge, one sample at a time: the reference for
    ``model._running_charge``.

    The sum starts at ``q0`` and adds each interval charge in order; a sum
    outside [q_lo, q_hi] restarts at that bound. Returns the sums and the
    clamped samples.
    """
    s = float(q0)
    sums, clamped = [s], []
    for k, charge in enumerate(np.asarray(charges, dtype=float).tolist(), start=1):
        s += charge
        if s < q_lo or s > q_hi:
            s = q_lo if s < q_lo else q_hi
            clamped.append(k)
        sums.append(s)
    return np.array(sums), clamped


def running_charge_vqst(params, timestamps, current, v0):
    """simulate's v_qst and saturation events, one sample at a time.

    The reference for ``simulate``: the running charge starts at Q(v0) and
    adds each trapezoidal interval charge in order; leaving [Q(lo), Q(hi)]
    restarts it at the bound, sets the sample to the bound voltage and
    records (t_k, bound). Every other sample is Q⁻¹ of the running charge, or
    the voltage at the start or the last clamp when its running charge has the
    same bits as there.
    """
    cap = params.capacitance
    lo = params.v_min - DEFAULT_VQST_GUARD
    hi = params.v_max + DEFAULT_VQST_GUARD
    q_lo = cap.integral_and_value(lo)[0]
    q_hi = cap.integral_and_value(hi)[0]
    t = np.asarray(timestamps, dtype=float).tolist()
    i = np.asarray(current, dtype=float).tolist()
    s = anchor_q = cap.integral_and_value(v0)[0]
    anchor_v = v0
    v_qst, events = [v0], []
    for k in range(1, len(t)):
        s = s + 0.5 * (i[k - 1] + i[k]) * (t[k] - t[k - 1])
        if s < q_lo or s > q_hi:
            s, anchor_v = (q_lo, lo) if s < q_lo else (q_hi, hi)
            anchor_q = s
            events.append((t[k], anchor_v))
        if struct.pack("<d", s) == struct.pack("<d", anchor_q):
            v_qst.append(anchor_v)
        else:
            v_qst.append(cap.inverse_integral(s)[0])
    return np.array(v_qst), events


def rc_recurrence(timestamps, current, rc_groups, initial=None, dtype=float):
    """reconstruct_v_dyn's RC columns, one sample at a time.

    The reference for the prefix scan: each group runs x_k = x_{k-1} * a_k + b_k
    with a_k = exp(-dt_k / tau) and b_k = r * i_k * (1 - a_k), the same float
    expressions as ``mean_step``, from rest or from ``initial``. With
    ``dtype=np.longdouble`` the decays, forcings and recurrence are carried in
    extended precision, as an accuracy yardstick for both forms.
    """
    t = np.asarray(timestamps, dtype=dtype)
    i_eff = interval_currents(np.asarray(current, dtype=float)).astype(dtype)
    out = np.zeros((t.size, len(rc_groups)), dtype=dtype)
    if initial is not None:
        out[0] = np.asarray(initial, dtype=float)
    for j, g in enumerate(rc_groups):
        decay = np.exp(-np.diff(t) / dtype(g.tau))
        forced = dtype(g.r) * i_eff * (dtype(1.0) - decay)
        x = out[0, j].item()
        col = [x]
        for d, f in zip(decay.tolist(), forced.tolist()):
            x = x * d + f
            col.append(x)
        out[:, j] = col
    return out


# The EKF step on numpy arrays: the independent oracle for the generated
# kernel that predict, correct, MultiCellEkf.tick and the batch paths run.
# The step as textbook matrix algebra (Plett, J. Power Sources 134 (2004),
# part 3): F P F' + Q*dt, then the Joseph form (I - K H) P (I - K H)' + r K K'.
# Sums are numpy's, so the oracle agrees with the kernel to rounding.


def mean_step(state, params, current, dt):
    """The model step on numpy arrays: the charge map clamped into the guarded
    window and the exact RC decays, and the diagonal of F."""
    v_new, f00 = charge_map(params.capacitance, state.v_qst, float(current * dt))
    v_new = min(max(v_new, params.v_min - DEFAULT_VQST_GUARD), params.v_max + DEFAULT_VQST_GUARD)
    decay = np.exp(-dt / params.taus)
    v_dyn = state.v_dyn_components * decay + params.rs * current * (1.0 - decay)
    return CellState(v_new, v_dyn), np.concatenate(([f00], decay))


def step(state, params, current, dt):
    """The state after ``dt`` seconds at ``current``: ``mean_step``'s mean."""
    return mean_step(state, params, current, dt)[0]


def transition_jacobian(state, params, current, dt):
    """The diagonal Jacobian of ``step``: C(v0) / C(v1), then the RC decays."""
    return np.diag(mean_step(state, params, current, dt)[1])


def output_voltage(state, params, current):
    """Terminal voltage: v_qst + the RC voltages + the drop at the clamped current."""
    res = params.resistor
    if current < res.x_min or current > res.x_max:
        warnings.warn(_current_clamp_message(res), OutOfRangeWarning, stacklevel=2)
    return state.v_qst + float(np.sum(state.v_dyn_components)) + res.eval(current)


def numpy_predict(ekf, params, current, dt, cfg):
    """A-priori estimate after ``dt`` seconds at ``current``, as matrix algebra."""
    _check_finite(current=current, dt=dt)
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    mean, f_diag = mean_step(ekf.mean, params, current, dt)
    if not all(math.isfinite(q * dt) for q in np.diagonal(cfg.process_noise_q).tolist()):
        raise NumericalFailureError(f"process noise Q * dt is not finite (dt = {float(dt)})")
    cov = np.outer(f_diag, f_diag) * ekf.covariance + cfg.process_noise_q * dt
    cov = 0.5 * (cov + cov.T)
    # Scaling by a diagonal and adding PSD noise preserves semidefiniteness, so
    # a finiteness/diagonal check suffices here; the correction re-proves PSD.
    d = np.diagonal(cov)
    if not math.isfinite(float(np.sum(cov))) or np.any(d < -PSD_TOLERANCE):
        raise NumericalFailureError("predicted covariance lost positive semidefiniteness")
    return EkfState(mean, cov)


def numpy_correct(ekf, params, measured_v, current, cfg):
    """(a-posteriori estimate, innovation) after one terminal-voltage
    measurement, as matrix algebra; the innovation is reported even when r is
    infinite."""
    _check_finite(measured_v=measured_v, current=current)
    innovation = measured_v - output_voltage(ekf.mean, params, current)
    if math.isinf(cfg.measurement_noise_r):
        # Infinite measurement noise: the measurement carries no information.
        mean = CellState(ekf.mean.v_qst, ekf.mean.v_dyn_components.copy())
        return EkfState(mean, ekf.covariance.copy()), innovation
    p = ekf.covariance
    r = cfg.measurement_noise_r
    s = float(np.sum(p)) + r  # H P H^T with H = [1, 1, ..., 1]
    if s <= 0.0 or not math.isfinite(s):
        raise NumericalFailureError(f"innovation variance is not positive ({s})")
    gain = p.sum(axis=1) / s
    x = np.concatenate(([ekf.mean.v_qst], ekf.mean.v_dyn_components)) + gain * innovation
    a = np.eye(p.shape[0]) - gain[:, None]  # I - K H
    cov = a @ p @ a.T + r * np.outer(gain, gain)
    cov = 0.5 * (cov + cov.T)
    if not _is_psd(cov.tolist()):
        raise NumericalFailureError("corrected covariance lost positive semidefiniteness")
    return EkfState(CellState(float(x[0]), x[1:].copy()), cov), innovation


def oracle_service_soc(params, cfg, current, voltage, period):
    """SoC after each service of one cell that a round-robin engine services
    every ``period`` seconds with these readings: numpy_predict over the
    period at the held current, then numpy_correct."""
    state = make_filter(cfg)
    soc = []
    for i_k, v_k in zip(np.asarray(current, float).tolist(), np.asarray(voltage, float).tolist()):
        state = numpy_predict(state, params, i_k, period, cfg)
        state, _ = numpy_correct(state, params, v_k, i_k, cfg)
        soc.append(estimate_soc(state, params))
    return np.array(soc)


def step_chain(params, trace, cfg):
    """run_filter spelled out through the oracle: numpy_predict, then numpy_correct."""
    t, current, voltage = trace.timestamps, trace.current, trace.voltage
    i_eff = interval_currents(current)
    soc, innov, v_qst = (np.empty(t.size) for _ in range(3))
    state = make_filter(cfg)
    for k in range(t.size):
        if k > 0:
            state = numpy_predict(state, params, i_eff[k - 1], float(t[k] - t[k - 1]), cfg)
        state, innov[k] = numpy_correct(state, params, float(voltage[k]), float(current[k]), cfg)
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
    """run_filter equals the per-step chain within 1e-12. Its clamp counts are
    the chain's per-sample warnings, and it warns once for each kind the chain
    warns about."""
    run, got = warning_counts(run_filter, params, trace, cfg)
    (soc, innov, v_qst, final), expected = warning_counts(step_chain, params, trace, cfg)
    counted = Counter({(OutOfRangeWarning, _current_clamp_message(params.resistor)):
                       run.current_clamps,
                       (OutOfRangeWarning, _soc_clamp_message(params)): run.soc_clamps})
    assert +counted == expected
    assert got == Counter(set(expected))
    assert np.max(np.abs(run.soc - soc)) <= 1e-12
    assert np.max(np.abs(run.innovations - innov)) <= 1e-12
    assert np.max(np.abs(run.v_qst - v_qst)) <= 1e-12
    assert abs(run.final.mean.v_qst - final.mean.v_qst) <= 1e-12
    assert np.max(np.abs(run.final.mean.v_dyn_components - final.mean.v_dyn_components)) <= 1e-12
    assert np.max(np.abs(run.final.covariance - final.covariance)) <= 1e-12
    assert np.array_equal(run.final.covariance, run.final.covariance.T)


# The covariance step of the fused kernel in its list form, the reference for
# the straight-line code that covariance_steps compiles from the kernel's own
# lines. P is a list of rows; Q*dt too. Every sum adds left to right, as the
# kernel does.


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


@functools.cache
def covariance_steps(m: int):
    """The covariance step of ``CellFilter.series``' loop on its own, for size m,
    compiled from the lines the kernel inlines (``_predict_lines`` and
    ``_update_lines``), so one step of the kernel can be held to its list form;
    the predict first forms the decay products of ``_decay_product_lines``, as
    the kernel does when h changes.

    Returns two functions on flat row-major tuples of m*m floats for the
    symmetric P and Q*dt and tuples of m floats for f, t and k. As in the
    kernel, only the upper triangle of P and Q*dt is read, and P is returned
    with each entry (b, a) below the diagonal a copy of (a, b).
    ``predict_covariance(p, f, q) -> (p, t)`` forms F P F' + Q*dt for the
    diagonal f, its row sums t, and checks it. ``correct_covariance(p, t, r)
    -> (p, k)`` takes the row sums t of P, forms s = 1'P1 + r and the gain
    k = t / s, applies the Joseph update and proves the result PSD. Both
    raise ``NumericalFailureError`` where a check fails. Every sum adds its
    terms left to right.
    """
    flat, mirrored = _tuple(_entries(m)), _tuple(_entries(m, upper=True))
    f, t, k = (_tuple([f"{x}{a}" for a in range(m)]) for x in "ftk")
    source = "\n".join([
        "def predict_covariance(p, f, q):",
        *_indent([f"{flat} = p", f"{f} = f", f"{_tuple(_entries(m, 'q'))} = q",
                  *_decay_product_lines(m), *_predict_lines(m), f"return {mirrored}, {t}"], 1),
        "",
        "def correct_covariance(p, t, r):",
        *_indent([f"{flat} = p", f"{t} = t", *_update_lines(m), f"return {mirrored}, {k}"], 1),
    ]) + "\n"
    namespace = _compiled(source, f"<covariance step, m={m}>")
    return namespace["predict_covariance"], namespace["correct_covariance"]


def held_series(ekf, params, cfg, voltage, current, dt, i_pred):
    """``CellFilter.series`` on a filter that holds ``ekf``, in the argument order
    and result of ``list_filter_series``: (innovations, v_qst, final state,
    counts). Its warnings name the caller, as the method's name its caller's."""
    held = CellFilter(params, cfg, ekf)
    _, innovations, v_qst, counts = held.series(dt, i_pred, voltage, current)
    return innovations, v_qst, held.ekf, counts


def list_filter_series(ekf, params, cfg, voltage, current, dt, i_pred):
    """``CellFilter.series`` in list form, the reference for its generated loop.

    Every sample is predicted through ``charge_map``, ``math.exp`` decays and
    ``list_predict``, after a check that Q*dt has a finite diagonal, also over
    a dt of 0.0; it is then corrected through ``list_correct`` unless r is
    infinite. No step is reused.
    Raises and warns as the kernel does: it counts the samples whose current
    and whose v_qst it clamps, and warns once for each kind with a count
    above 0, also when it raises. Returns what the kernel returns, with the
    counts (current clamps, v_qst clamps).
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
    innovations, vqst = [], []
    n_cur = n_soc = 0
    try:
        for h, u, z, i, drop in zip(dt, i_pred, voltage, current, drops):
            v, f0 = charge_map(params.capacitance, v, u * h)
            if v < lo:
                v = lo
            elif v > hi:
                v = hi
            decay = [math.exp(-h / tau) for tau in params.taus.tolist()]
            dyn = [c * d + rj * u * (1.0 - d) for c, d, rj in zip(dyn, decay, params.rs.tolist())]
            q_dt = [[x * h for x in row] for row in q]
            if not all(math.isfinite(q_dt[a][a]) for a in range(m)):
                raise NumericalFailureError(f"process noise Q * dt is not finite (dt = {h})")
            p = list_predict(p, [f0, *decay], q_dt)
            if i < res.x_min or i > res.x_max:
                n_cur += 1
            innovation = z - ((v + left_to_right(dyn) if dyn else v) + drop)
            if not math.isinf(r):
                p, gain = list_correct(p, r)
                v += gain[0] * innovation
                dyn = [c + g * innovation for c, g in zip(dyn, gain[1:])]
                if not math.isfinite(v) or not math.isfinite(left_to_right(dyn)):
                    raise InvalidInputError("cell state must be finite")
            if v < params.v_min or v > params.v_max:
                n_soc += 1
            innovations.append(innovation)
            vqst.append(v)
    finally:
        if n_cur:
            warnings.warn(_current_clamp_message(res), OutOfRangeWarning)
        if n_soc:
            warnings.warn(_soc_clamp_message(params), OutOfRangeWarning)
    state = EkfState(CellState(v, np.array(dyn)), np.array(p))
    return np.array(innovations), np.array(vqst), state, (n_cur, n_soc)


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
