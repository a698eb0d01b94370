"""Extended Kalman filter over the cell state (v_qst, v_1..v_N).

Prediction advances the mean with the cell model and the covariance with the
state-transition Jacobian; correction incorporates one terminal-voltage
measurement through the Joseph-form update. Both are pure functions from
filter state to filter state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidParametersError, NumericalFailureError
from .model import (
    CellParameters,
    CellState,
    DEFAULT_VQST_GUARD,
    Trace,
    _advance,
    _check_finite,
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
    guard: float = DEFAULT_VQST_GUARD,
) -> EkfState:
    """A-priori estimate after ``dt`` seconds at the given current.

    The model step is exact for any ``dt``, so a long gap is one step.
    """
    _check_finite(current=current, dt=dt)
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    mean, _, f00, decay = _advance(ekf.mean, params, current, dt, guard)
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


def predicted_output(ekf: EkfState, params: CellParameters, current: float) -> float:
    """Terminal voltage the filter expects for the given current."""
    return output_voltage(ekf.mean, params, current)


@dataclass(eq=False)
class FilterRun:
    """Per-sample log of a single-cell estimation run."""

    times: np.ndarray
    soc: np.ndarray
    innovations: np.ndarray
    v_qst: np.ndarray
    final: EkfState


def run_filter(
    params: CellParameters,
    trace: Trace,
    cfg: EkfConfig,
    guard: float = DEFAULT_VQST_GUARD,
) -> FilterRun:
    """Filter a measured trace sample by sample.

    The first sample is a correction only; every later sample predicts over
    the elapsed interval with the trapezoid-consistent interval current (the
    same convention the simulator uses) and then corrects.
    """
    voltage = trace.require_voltage()
    t = trace.timestamps
    current = trace.current
    i_eff = interval_currents(current)
    n = t.size
    soc = np.empty(n)
    innov = np.empty(n)
    v_qst = np.empty(n)
    state = make_filter(cfg)
    for k in range(n):
        if k > 0:
            state = predict(state, params, i_eff[k - 1], float(t[k] - t[k - 1]), cfg, guard)
        state, innov[k] = _correct(state, params, float(voltage[k]), float(current[k]), cfg)
        soc[k] = estimate_soc(state, params)
        v_qst[k] = state.mean.v_qst
    return FilterRun(t.copy(), soc, innov, v_qst, state)
