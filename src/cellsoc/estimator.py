"""Extended Kalman filter over the cell state (v_qst, v_1..v_N).

Prediction advances the mean with the cell model and the covariance with the
state-transition Jacobian; correction incorporates one terminal-voltage
measurement through the Joseph-form update. ``predict`` and ``correct`` are
the per-step API: pure functions from filter state to filter state.

Whole series go through one fused kernel, ``_filter_series``, that runs the
same arithmetic on plain floats. F is diagonal and H is a row of ones, so with
p = P*1 and s = 1'P1 + r the Joseph update is the rank-1 form
P - K p' - p K' + s K K'. At rest the covariance step settles on a bitwise
fixed point; while its inputs (f0 and dt) repeat, the kernel keeps that P and
gain instead of recomputing them, which is exact because the skipped
arithmetic would reproduce the same bits.

``_filter_revolutions`` (behind ``MultiCellEkf.run``) runs that kernel's step
for many cells at once, one vectorised step per revolution, with its bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from operator import getitem, mul

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidInputError,
    InvalidParametersError,
    NumericalFailureError,
    OutOfRangeWarning,
)
from .model import (
    CellParameters,
    CellState,
    DEFAULT_VQST_GUARD,
    Trace,
    _advance,
    _check_finite,
    _current_clamp_message,
    _soc_clamp_message,
    charge_map,
    interval_currents,
    output_voltage,
    soc_from_vqst,
    vqst_from_soc,
)

PSD_TOLERANCE = 1e-10


def _check_psd(matrix: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParametersError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidParametersError(f"{name} must be finite")
    if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise InvalidParametersError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) < -PSD_TOLERANCE:
        raise InvalidParametersError(f"{name} must be positive semidefinite")
    return 0.5 * (m + m.T)


@dataclass(frozen=True, eq=False)
class EkfConfig:
    """Noise and initialization choices for one filter instance.

    process_noise_q is a rate (variance per second); prediction adds Q * dt.
    """

    process_noise_q: np.ndarray
    measurement_noise_r: float
    initial_covariance_p0: np.ndarray
    initial_state: CellState

    def __post_init__(self):
        q = _check_psd(self.process_noise_q, "process noise Q")
        p0 = _check_psd(self.initial_covariance_p0, "initial covariance P0")
        n = self.initial_state.v_dyn_components.size + 1
        if q.shape != (n, n) or p0.shape != (n, n):
            raise InvalidParametersError(
                f"noise matrices must be {n}x{n} for a state with {n - 1} RC components"
            )
        if not self.measurement_noise_r > 0.0:
            raise InvalidParametersError("measurement noise variance must be > 0")
        object.__setattr__(self, "process_noise_q", q)
        object.__setattr__(self, "initial_covariance_p0", p0)

    @classmethod
    def default(
        cls,
        params: CellParameters,
        initial_soc: float = 0.5,
        q_rate: float = 1e-8,
        r: float = 1e-4,
        p0_vqst: float = 0.04,
        p0_dyn: float = 1e-4,
    ) -> "EkfConfig":
        """Sensible defaults sized for the given parameter set."""
        n = params.n_rc + 1
        return cls(
            process_noise_q=q_rate * np.eye(n),
            measurement_noise_r=r,
            initial_covariance_p0=np.diag([p0_vqst] + [p0_dyn] * params.n_rc),
            initial_state=CellState.rest(vqst_from_soc(params, initial_soc), params.n_rc),
        )


@dataclass(eq=False)
class EkfState:
    """Filter mean and covariance; covariance is re-symmetrized on every update."""

    mean: CellState
    covariance: np.ndarray

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)

    def copy(self) -> "EkfState":
        return EkfState(self.mean.copy(), self.covariance.copy())


def make_filter(cfg: EkfConfig) -> EkfState:
    return EkfState(cfg.initial_state.copy(), np.array(cfg.initial_covariance_p0))


def transition_jacobian(
    state: CellState, params: CellParameters, current: float, dt: float
) -> np.ndarray:
    """Jacobian of one model step with respect to the state (diagonal).

    The (0, 0) entry is C(v0) / C(v1), the exact derivative of the charge map
    Q(v1) = Q(v0) + i*dt; the RC entries are the exact decay factors.
    Off-diagonals are zero because the states do not couple.
    """
    _, f00 = charge_map(params.capacitance, state.v_qst, float(current * dt))
    return np.diag(np.concatenate(([f00], np.exp(-dt / params.taus))))


def predict(
    ekf: EkfState,
    params: CellParameters,
    current: float,
    dt: float,
    cfg: EkfConfig,
) -> EkfState:
    """A-priori estimate after ``dt`` seconds at the given current.

    The model step is exact for any ``dt``, so a long gap is one step.
    """
    _check_finite(current=current, dt=dt)
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    mean, _, f00, decay = _advance(ekf.mean, params, current, dt)
    f_diag = np.concatenate(([f00], decay))
    cov = np.outer(f_diag, f_diag) * ekf.covariance + cfg.process_noise_q * dt
    cov = 0.5 * (cov + cov.T)
    # Scaling by a diagonal and adding PSD noise preserves semidefiniteness, so
    # a finiteness/diagonal check suffices here; correct() re-proves PSD.
    d = np.diagonal(cov)
    if not math.isfinite(float(np.sum(cov))) or np.any(d < -PSD_TOLERANCE):
        raise NumericalFailureError("predicted covariance lost positive semidefiniteness")
    return EkfState(mean, cov)


def _correct(
    ekf: EkfState,
    params: CellParameters,
    measured_v: float,
    current: float,
    cfg: EkfConfig,
) -> tuple[EkfState, float]:
    """correct() plus the innovation it used (reported even when r is infinite)."""
    _check_finite(measured_v=measured_v, current=current)
    innovation = measured_v - output_voltage(ekf.mean, params, current)
    if math.isinf(cfg.measurement_noise_r):
        # Infinite measurement noise: the measurement carries no information.
        return ekf.copy(), innovation
    p = ekf.covariance
    r = cfg.measurement_noise_r
    s = float(np.sum(p)) + r  # H P H^T with H = [1, 1, ..., 1]
    if s <= 0.0 or not math.isfinite(s):
        raise NumericalFailureError(f"innovation variance is not positive ({s})")
    gain = p.sum(axis=1) / s
    x = ekf.mean.as_vector() + gain * innovation
    a = np.eye(p.shape[0]) - gain[:, None]  # I - K H
    cov = a @ p @ a.T + r * np.outer(gain, gain)
    cov = 0.5 * (cov + cov.T)
    try:
        np.linalg.cholesky(cov + PSD_TOLERANCE * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError:
        raise NumericalFailureError(
            "corrected covariance lost positive semidefiniteness"
        ) from None
    return EkfState(CellState.from_vector(x), cov), innovation


def correct(
    ekf: EkfState,
    params: CellParameters,
    measured_v: float,
    current: float,
    cfg: EkfConfig,
) -> EkfState:
    """A-posteriori estimate after one terminal-voltage measurement.

    The output map is the unweighted sum of the states plus the (input-only)
    instantaneous drop, so H is a row of ones. Joseph form keeps the
    covariance positive semidefinite.
    """
    return _correct(ekf, params, measured_v, current, cfg)[0]


def estimate_soc(ekf: EkfState, params: CellParameters) -> float:
    """State of charge implied by the filter mean."""
    return soc_from_vqst(params, ekf.mean.v_qst)


@dataclass(eq=False)
class FilterRun:
    """Per-sample log of a single-cell estimation run."""

    times: np.ndarray
    soc: np.ndarray
    innovations: np.ndarray
    v_qst: np.ndarray
    final: EkfState


def _is_psd(p: list[list[float]]) -> bool:
    """Whether p + PSD_TOLERANCE * I has a Cholesky factor, on plain floats.

    The pivot test is LAPACK's, as run by np.linalg.cholesky: a pivot that is
    not strictly positive (or is NaN) fails.
    """
    low: list[list[float]] = []
    for i, row in enumerate(p):
        li: list[float] = []
        for lj, x in zip(low, row):  # lj ends with its diagonal entry
            li.append((x - sum(map(mul, li, lj))) / lj[-1])
        d = row[i] + PSD_TOLERANCE - sum(map(mul, li, li))
        if not d > 0.0:
            return False
        li.append(math.sqrt(d))
        low.append(li)
    return True


def _filter_series(
    ekf: EkfState,
    params: CellParameters,
    cfg: EkfConfig,
    voltage: np.ndarray,
    current: np.ndarray,
    dt: np.ndarray,
    i_pred: np.ndarray,
    stacklevel: int = 2,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, EkfState]:
    """Predict and correct over a whole series on plain floats.

    Each sample is predicted over its entry of ``dt`` at its entry of
    ``i_pred``, then corrected with its ``voltage`` measured at its
    ``current``. When ``dt`` and ``i_pred`` are one entry shorter, they belong
    to the second sample on and the first sample is a correction only. The
    arithmetic, checks and warnings are those of ``predict`` and ``_correct``;
    the inputs are trace columns, finite by construction. Returns per-sample
    SoC, innovation and v_qst, and the final filter state. Warnings are
    attributed ``stacklevel`` frames up, as ``warnings.warn`` counts them.
    """
    cap = params.capacitance
    res = params.resistor
    i_lo, i_hi = res.x_min, res.x_max
    v_lo, v_hi = params.v_min - DEFAULT_VQST_GUARD, params.v_max + DEFAULT_VQST_GUARD
    soc_lo, soc_hi = params.v_min, params.v_max
    current_clamped = _current_clamp_message(res)
    soc_clamped = _soc_clamp_message(params)
    taus = params.taus.tolist()
    r_dyn = params.rs.tolist()
    q = cfg.process_noise_q.tolist()
    r = cfg.measurement_noise_r
    update = not math.isinf(r)
    m = len(taus) + 1

    v = ekf.mean.v_qst
    dyn = ekf.mean.v_dyn_components.tolist()
    if len(dyn) != len(taus):
        raise InvalidInputError(
            f"state has {len(dyn)} RC components, parameters define {len(taus)}"
        )
    p = ekf.covariance.tolist()
    h_prev = math.nan
    decay = fill = q_dt = ()
    steady = None  # (f0, h) of the last full step if it left P bit for bit unchanged
    innov_out, vqst_out = np.empty(len(voltage)), np.empty(len(voltage))

    drops = res.eval(np.asarray(current, dtype=float))
    dt, i_pred, voltage, current, drops = (
        memoryview(np.asarray(a, dtype=float)) for a in (dt, i_pred, voltage, current, drops)
    )
    preds = chain(repeat(None, len(voltage) - len(dt)), zip(dt, i_pred))
    # Every covariance entry below is formed symmetrically in (a, b), so P
    # stays exactly symmetric without a re-symmetrization.
    for k, (pred, z, i, drop) in enumerate(zip(preds, voltage, current, drops)):
        reuse = False
        if pred is not None:
            h, u = pred
            v, f0 = charge_map(cap, v, u * h)
            if v < v_lo:
                v = v_lo
            elif v > v_hi:
                v = v_hi
            if h != h_prev:
                h_prev = h
                decay = [math.exp(-h / tau) for tau in taus]
                fill = [1.0 - d for d in decay]
                q_dt = [[x * h for x in row] for row in q]
            dyn = [c * d + rj * u * g for c, d, rj, g in zip(dyn, decay, r_dyn, fill)]
            # The covariance step reads only P, f0, h (through the decay and
            # Q*h) and r. At rest f0 and h repeat and P settles on a fixed
            # point, so the step would reproduce the P and gain it holds; they
            # passed every check when first made. f0 (a capacitance ratio) and
            # h are positive, so == on them is bit equality.
            reuse = (f0, h) == steady
            if not reuse:
                p_start = p
                f = [f0, *decay]
                p = [
                    [fa * fb * x + qx for fb, x, qx in zip(f, row, q_row)]
                    for fa, row, q_row in zip(f, p, q_dt)
                ]
                # Scaling by a diagonal and adding PSD noise preserves
                # semidefiniteness, so finiteness and the diagonal suffice here.
                diagonal = map(getitem, p, range(m))
                if not math.isfinite(sum(map(sum, p))) or min(diagonal) < -PSD_TOLERANCE:
                    raise NumericalFailureError(
                        "predicted covariance lost positive semidefiniteness"
                    )

        if i < i_lo or i > i_hi:
            warnings.warn(current_clamped, OutOfRangeWarning, stacklevel=stacklevel)
        innovation = z - (v + sum(dyn) + drop)
        if update:
            if not reuse:
                p1 = list(map(sum, p))  # P 1
                s = sum(p1) + r
                if s <= 0.0 or not math.isfinite(s):
                    raise NumericalFailureError(f"innovation variance is not positive ({s})")
                gain = [x / s for x in p1]
                # Joseph form with H = 1': P - K p' - p K' + s K K'.
                p = [
                    [x - (ka * pb + pa * kb) + ka * kb * s for x, pb, kb in zip(row, p1, gain)]
                    for row, ka, pa in zip(p, gain, p1)
                ]
                if not _is_psd(p):
                    raise NumericalFailureError(
                        "corrected covariance lost positive semidefiniteness"
                    )
                # Bits, since == would let a zero change its sign; == first is cheap.
                settled = pred is not None and p == p_start and (
                    np.array(p).tobytes() == np.array(p_start).tobytes()
                )
                steady = (f0, h) if settled else None
            v += gain[0] * innovation
            dyn = [c + g * innovation for c, g in zip(dyn, gain[1:])]
            if not math.isfinite(v) or not math.isfinite(sum(dyn)):
                raise InvalidInputError("cell state must be finite")
        if v < soc_lo or v > soc_hi:
            warnings.warn(soc_clamped, OutOfRangeWarning, stacklevel=stacklevel)
        innov_out[k] = innovation
        vqst_out[k] = v

    # soc_from_vqst over the whole column; its clamp warnings were raised above.
    soc_out = cap.integral_array(np.clip(vqst_out, soc_lo, soc_hi)) / params.delta_q
    final = EkfState(CellState(v, np.array(dyn)), np.array(p))
    return soc_out, innov_out, vqst_out, final


# Python's sum() of floats adds left to right up to 3.11 and is compensated
# (Neumaier) from 3.12 on; _builtin_sum follows this interpreter.
_COMPENSATED_SUM = sum([1e16, 1.0, -1e16]) == 1.0


def _builtin_sum(terms, compensated: bool = _COMPENSATED_SUM):
    """``sum(terms)`` as the builtin computes it on floats, elementwise on arrays.

    The result has the builtin's bits wherever it is finite, and is not finite
    where the builtin's is not. sum() starts from the int 0, so a leading -0.0
    becomes 0.0, and no partial sum is ever -0.0. The compensated form adds the
    exact rounding error of each addition at the end; CPython finds it with a
    branch on |f| >= |x|, the branch-free two-sum below finds the same number.
    With two terms the error cannot change the rounded sum, so it is skipped.
    """
    if not terms:
        return 0.0
    f = 0.0 + terms[0]
    c = None
    for x in terms[1:]:
        t = f + x
        if compensated and len(terms) > 2:
            b = t - f
            e = (f - (t - b)) + (x - b)
            c = e if c is None else c + e
        f = t
    return f if c is None else f + c


def _psd_mask(p: np.ndarray) -> np.ndarray:
    """``_is_psd`` of every matrix in an [m, m, ...] stack, with its arithmetic."""
    ok = np.ones(p.shape[2:], dtype=bool)
    low = []
    for i in range(p.shape[0]):
        li = []
        for j, lj in enumerate(low):
            li.append((p[i, j] - _builtin_sum([a * b for a, b in zip(li, lj)])) / lj[-1])
        d = p[i, i] + PSD_TOLERANCE - _builtin_sum([a * a for a in li])
        ok &= d > 0.0
        li.append(np.sqrt(d))
        low.append(li)
    return ok


# Magnitude bound of the stacked path's inputs, tables and states. Within it no
# intermediate of the charge map overflows or underflows, which the end
# segments of MonotoneCurve.segments rely on; past it _filter_series runs.
_STACK_BOUND = 1e100
_CHUNK = 16  # revolutions filtered and checked at once by the stacked path


def _stack_segments(curves):
    """Rows of ``MonotoneCurve.segments`` of n curves, and their search keys.

    Rows are padded to one width. The keys are complex, row + 1j * knot, padded
    with +inf; complex order is lexicographic, so one ``searchsorted`` of
    row + 1j * x counts the knots at or below x in every row and lands on the
    flat index of its segment. Returns the grid keys, the knot-integral keys
    and the [5, n * width] table, or None unless every curve keeps its values
    within ``_STACK_BOUND``, has a first knot integral above 0.0 (so a charge
    of exactly 0.0 finds the first segment) and meets the end-segment
    identities of ``MonotoneCurve.segments``.
    """
    n = len(curves)
    width = max(cap.grid.size for cap in curves) + 1
    table = np.ones((5, n, width))
    keys = np.empty((2, n, width), dtype=complex)
    keys.real = np.arange(n)[:, None]
    keys.imag = np.inf
    for row, cap in enumerate(curves):
        t = cap.segments()
        g, c, knots = t[0], t[1], t[4]
        if not (max(-g[0], g[-1], knots[-1], c.max()) <= _STACK_BOUND
                and c.min() >= 1.0 / _STACK_BOUND and knots[2] > 0.0
                and all(0.5 * (x + x) == x == math.sqrt(x * x) for x in (c[0], c[-1]))):
            return None
        table[:, row, : t.shape[1]] = t
        keys.imag[:, row, : t.shape[1] - 1] = g[1:], knots[1:]
    return keys[0].ravel(), keys[1].ravel(), table.reshape(5, -1)


def _revolutions(cells, steps: int):
    """The stacked core of ``_filter_revolutions``: ``steps`` services of every cell.

    Returns (soc, innovation, v_qst, final) per cell, as ``_filter_series``
    would for those services, or None if one of its checks could fail on any
    of them, or if the stacked arithmetic might not be exact: a value past
    ``_STACK_BOUND`` (see ``_stack_segments`` for the curves) or a clamp bound
    that is a zero, whose sign np.maximum may not keep. Work goes in chunks of
    ``_CHUNK`` revolutions, which bounds the memory; each chunk's checks run
    on its recorded values when it ends.
    """
    n = len(cells)
    ekfs, params, cfgs, voltage, current, dt = zip(*cells)
    m = params[0].n_rc + 1
    voltage, current, dt = ([np.asarray(a, dtype=float)[:steps] for a in arrays]
                            for arrays in (voltage, current, dt))
    v_lo = np.array([prm.v_min for prm in params]) - DEFAULT_VQST_GUARD
    v_hi = np.array([prm.v_max for prm in params]) + DEFAULT_VQST_GUARD
    v = np.array([e.mean.v_qst for e in ekfs], dtype=float)
    stacked = _stack_segments([prm.capacitance for prm in params])
    if stacked is None or not (np.all(v_lo != 0.0) and np.all(v_hi != 0.0)
                               and np.abs(v).max() <= _STACK_BOUND):
        return None
    # Decays from math.exp once per distinct (cell, dt), as the scalar kernel
    # computes them: np.exp may round differently.
    decays, pair = [], np.empty((steps, n), dtype=np.int32)
    for c, (prm, h) in enumerate(zip(params, dt)):
        distinct, which = np.unique(h, return_inverse=True)
        pair[:, c] = which + len(decays)
        decays += [[math.exp(-x / tau) for tau in prm.taus.tolist()] for x in distinct.tolist()]
    decays = np.array(decays)
    # Cells run along the last axis: [m, n] rows, [m, m, n] covariances.
    rs = np.array([prm.rs for prm in params]).T
    q = np.array([cfg.process_noise_q for cfg in cfgs]).transpose(1, 2, 0)
    r = np.array([cfg.measurement_noise_r for cfg in cfgs])
    grid_keys, knot_keys, table = stacked
    probe = np.empty(n, dtype=complex)
    probe.real = np.arange(n)

    dyn = np.array([e.mean.v_dyn_components for e in ekfs]).T
    p = np.array([e.covariance for e in ekfs]).transpose(1, 2, 0)
    innov_out, vqst_out = np.empty((n, steps)), np.empty((n, steps))
    dyn_seen, diag_seen = np.empty((_CHUNK, m - 1, n)), np.empty((_CHUNK, m, n))
    s_seen, p_seen = np.empty((_CHUNK, n)), np.empty((_CHUNK, m, m, n))
    # Values past a failing check must neither warn nor raise before it is seen.
    with np.errstate(all="ignore"):
        for start in range(0, steps, _CHUNK):
            stop = min(start + _CHUNK, steps)
            z, i, h = (np.stack([x[start:stop] for x in columns], axis=1)
                       for columns in (voltage, current, dt))
            drop = np.stack([prm.resistor.eval(i[:, c]) for c, prm in enumerate(params)], axis=1)
            charge = i * h
            if not np.abs(charge).max() <= _STACK_BOUND:
                return None
            held = (charge == 0.0).any(axis=1).tolist()
            f_diag = np.empty((stop - start, m, n))  # row 0 takes the charge-map slope
            f_diag[:, 1:] = decays[pair[start:stop]].transpose(0, 2, 1)
            forced = rs * i[:, None] * (1.0 - f_diag[:, 1:])
            q_h = q * h[:, None, None]
            for k in range(stop - start):
                # charge_map: Q(v1) = Q(v) + i*dt through both segment tables. A
                # NaN or inf query may index one past the end: clip, and let
                # the checks catch it.
                probe.imag = v
                g0, c, dc, dg, knot = table.take(
                    np.searchsorted(grid_keys, probe, side="right"), axis=1, mode="clip")
                dx = v - g0
                c0 = c + dc * dx / dg
                q1 = knot + 0.5 * (c + c0) * dx + charge[k]
                probe.imag = q1
                g0, c, dc, dg, knot = table.take(
                    np.searchsorted(knot_keys, probe, side="right"), axis=1, mode="clip")
                dq = q1 - knot
                # max(x, 0.0) unless x is a zero; then c1 = 0, f0 is infinite
                # and the s check fails, whichever sign the zero has.
                c1 = np.sqrt(np.maximum(c * c + 2.0 * (dc / dg) * dq, 0.0))
                v1 = g0 + 2.0 * dq / (c + c1)
                f = f_diag[k]
                f[0] = c0 / c1
                if held[k]:  # zero charge leaves v where it is
                    still = charge[k] == 0.0
                    v1 = np.where(still, v, v1)
                    f[0] = np.where(still, 1.0, f[0])
                v = np.minimum(np.maximum(v1, v_lo), v_hi)
                dyn = dyn * f[1:] + forced[k]
                p = f[:, None] * f * p + q_h[k]
                diag_seen[k] = p.reshape(m * m, n)[:: m + 1]

                innovation = z[k] - (v + _builtin_sum(list(dyn)) + drop[k])
                p1 = _builtin_sum(list(p.transpose(1, 0, 2)))
                s = _builtin_sum(list(p1)) + r
                gain = p1 / s
                kp = gain[:, None] * p1
                p = p - (kp + kp.transpose(1, 0, 2)) + gain[:, None] * gain * s
                v = v + gain[0] * innovation
                dyn = dyn + gain[1:] * innovation
                s_seen[k], p_seen[k], dyn_seen[k] = s, p, dyn
                innov_out[:, start + k], vqst_out[:, start + k] = innovation, v
            # The checks of _filter_series: the predicted diagonal and the sum
            # of P (s is not finite if it is not), s, the corrected P and the
            # state. States inside the bound also keep the end segments exact.
            size = stop - start
            if not (diag_seen[:size].min() >= -PSD_TOLERANCE
                    and s_seen[:size].min() > 0.0 and s_seen[:size].max() < math.inf
                    and _psd_mask(p_seen[:size].transpose(1, 2, 0, 3)).all()
                    and np.abs(vqst_out[:, start:stop]).max() <= _STACK_BOUND
                    and np.abs(dyn_seen[:size]).max() <= _STACK_BOUND):
                return None

    out = []
    for c, prm in enumerate(params):
        vqst = vqst_out[c]
        soc = prm.capacitance.integral_array(np.clip(vqst, prm.v_min, prm.v_max)) / prm.delta_q
        final = EkfState(CellState(float(v[c]), dyn[:, c].copy()), p[:, :, c].copy())
        out.append((soc, innov_out[c], vqst, final))
    return out


def _warn_samples(params: CellParameters, current: np.ndarray, vqst: np.ndarray) -> None:
    """The per-sample warnings ``_filter_series`` raised over these samples, in order,
    attributed to the caller of ``_filter_revolutions``."""
    res = params.resistor
    clamped_i = (current < res.x_min) | (current > res.x_max)
    clamped_v = (vqst < params.v_min) | (vqst > params.v_max)
    for k in np.flatnonzero(clamped_i | clamped_v).tolist():
        if clamped_i[k]:
            warnings.warn(_current_clamp_message(res), OutOfRangeWarning, stacklevel=3)
        if clamped_v[k]:
            warnings.warn(_soc_clamp_message(params), OutOfRangeWarning, stacklevel=3)


def _filter_revolutions(cells):
    """``_filter_series`` for many cells at once, one revolution per step.

    ``cells`` holds one (ekf, params, cfg, voltage, current, dt) per cell.
    Each service predicts over its ``dt`` at its own current (the sample held
    through the revolution) and corrects with its voltage. Returns, per cell,
    ``_filter_series(ekf, params, cfg, voltage, current, dt, current)`` bit for
    bit; the warnings and errors are those of these calls in cell order.

    Cells with the same number of RC groups and a finite r advance together:
    [N] means, [n-1, N] RC states and [n, n, N] covariances, one vectorised
    step per revolution, for as many services as all of them have. Single
    cells, r = inf cells and the services past that count go through
    ``_filter_series``. The stacked step repeats the scalar arithmetic
    operation by operation, so it gives the same bits; decays come from
    ``math.exp`` per distinct dt, since ``np.exp`` may round differently. It
    skips the stationary reuse, which only saves work. Its warnings are raised
    afterwards, and if any check could fail every cell goes through
    ``_filter_series`` instead, which raises where the scalar kernel does.
    Every warning is attributed to this function's caller.
    """
    groups: dict[int, list[int]] = {}
    for c, (ekf, params, cfg, voltage, *_) in enumerate(cells):
        if (len(voltage) and not math.isinf(cfg.measurement_noise_r)
                and ekf.mean.v_dyn_components.size == params.n_rc):
            groups.setdefault(params.n_rc, []).append(c)
    heads = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        steps = min(len(cells[c][3]) for c in members)
        head = _revolutions([cells[c] for c in members], steps)
        if head is None:
            heads = {}
            break
        heads.update(zip(members, head))

    out = []
    for c, (ekf, params, cfg, voltage, current, dt) in enumerate(cells):
        if c not in heads:
            out.append(_filter_series(ekf, params, cfg, voltage, current, dt, current,
                                      stacklevel=3))
            continue
        soc, innovations, vqst, final = heads[c]
        steps = soc.size
        _warn_samples(params, np.asarray(current[:steps], dtype=float), vqst)
        if len(voltage) > steps:
            tail = _filter_series(final, params, cfg, voltage[steps:], current[steps:],
                                  dt[steps:], current[steps:], stacklevel=3)
            soc, innovations, vqst = (np.concatenate(pair) for pair in
                                      zip((soc, innovations, vqst), tail[:3]))
            final = tail[3]
        out.append((soc, innovations, vqst, final))
    return out


def run_filter(
    params: CellParameters,
    trace: Trace,
    cfg: EkfConfig,
) -> FilterRun:
    """Filter a measured trace sample by sample.

    The first sample is a correction only; every later sample predicts over
    the elapsed interval with the trapezoid-consistent interval current (the
    same convention the simulator uses) and then corrects.
    """
    voltage = trace.require_voltage()
    t = trace.timestamps
    soc, innov, v_qst, final = _filter_series(
        make_filter(cfg), params, cfg, voltage, trace.current,
        np.diff(t), interval_currents(trace.current),
    )
    return FilterRun(t.copy(), soc, innov, v_qst, final)
