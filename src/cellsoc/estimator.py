"""Extended Kalman filter over the cell state (v_qst, v_1..v_N).

Prediction advances the mean with the cell model and the covariance with the
state-transition Jacobian; correction incorporates one terminal-voltage
measurement through the Joseph-form update. ``predict`` and ``correct`` are
the per-step API: pure functions from filter state to filter state.

Whole series (``run_filter`` and ``MultiCellEkf.run``) go through one fused
kernel, ``_filter_series``, that runs the same arithmetic on plain floats.
F is diagonal and H is a row of ones, so with p = P*1 and s = 1'P1 + r the
Joseph update is the rank-1 form P - K p' - p K' + s K K'. At rest the
covariance step settles on a bitwise fixed point; while its inputs (f0 and dt)
repeat, the kernel keeps that P and gain instead of recomputing them, which
is exact because the skipped arithmetic would reproduce the same bits.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, EkfState]:
    """Predict and correct over a whole series on plain floats.

    Each sample is predicted over its entry of ``dt`` at its entry of
    ``i_pred``, then corrected with its ``voltage`` measured at its
    ``current``. When ``dt`` and ``i_pred`` are one entry shorter, they belong
    to the second sample on and the first sample is a correction only. The
    arithmetic, checks and warnings are those of ``predict`` and ``_correct``;
    the inputs are trace columns, finite by construction. Returns per-sample
    SoC, innovation and v_qst, and the final filter state.
    """
    cap = params.capacitance
    res = params.resistor
    i_lo, i_hi = res.x_min, res.x_max
    v_lo, v_hi = params.v_min - DEFAULT_VQST_GUARD, params.v_max + DEFAULT_VQST_GUARD
    soc_lo, soc_hi = params.v_min, params.v_max
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
            warnings.warn(
                f"current outside the resistor curve range [{i_lo}, {i_hi}] A, clamped",
                OutOfRangeWarning,
                stacklevel=2,
            )
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
            warnings.warn(soc_clamped, OutOfRangeWarning, stacklevel=2)
        innov_out[k] = innovation
        vqst_out[k] = v

    # soc_from_vqst over the whole column; its clamp warnings were raised above.
    soc_out = cap.integral_array(np.clip(vqst_out, soc_lo, soc_hi)) / params.delta_q
    final = EkfState(CellState(v, np.array(dyn)), np.array(p))
    return soc_out, innov_out, vqst_out, final


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
