"""Parameter identification from a pulse-test trace.

The measured voltage is decomposed into its instantaneous, dynamic and
quasi-stationary contributions: simultaneous current/voltage jumps give the
nonlinear-resistor characteristic, zero-current relaxation tails give the RC
groups (separable least squares), and subtracting both from the terminal
voltage leaves the quasi-stationary series, whose charge characteristic is
differentiated into the static capacitance curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import MonotoneCurve, isotonic_nondecreasing
from .errors import (
    ConfigurationError,
    FitConvergenceError,
    FitQualityWarning,
    InvalidParametersError,
    UnusableTraceError,
)
from .model import (
    _MAX_SAMPLES,
    CellParameters,
    RcGroup,
    Trace,
    interval_currents,
    reconstruct_v_dyn,
)


@dataclass(frozen=True)
class IdentificationConfig:
    """Tuning knobs of the identification pipeline."""

    n_rc: int = 2
    current_zero_threshold: float = 0.01     # amperes; |i| below this is "rest"
    capacitance_grid_size: int = 96
    # Moving-average halfwidth applied to Q(V) before differencing. The central
    # difference already averages the capacitance over two grid cells, so the
    # default adds no extra smoothing; raise this for noisy measurements.
    smoothing_halfwidth: int = 0

    def __post_init__(self):
        if self.n_rc < 1:
            raise ConfigurationError("n_rc must be at least 1")
        threshold = self.current_zero_threshold
        if not (threshold > 0.0) or not math.isfinite(threshold):
            raise ConfigurationError(f"current-zero threshold must be positive and finite, "
                                     f"got {threshold}")
        if self.capacitance_grid_size < 16:
            raise ConfigurationError("capacitance grid needs at least 16 points")
        if self.capacitance_grid_size > _MAX_SAMPLES:
            raise ConfigurationError(f"capacitance_grid_size is more than one array holds "
                                     f"({_MAX_SAMPLES})")
        if self.smoothing_halfwidth < 0:
            raise ConfigurationError("smoothing halfwidth cannot be negative")
        if 2 * self.smoothing_halfwidth + 1 > self.capacitance_grid_size:
            raise ConfigurationError(f"smoothing_halfwidth window (2 * smoothing_halfwidth + 1) "
                                     f"is wider than the {self.capacitance_grid_size}-point "
                                     f"capacitance grid")


@dataclass(frozen=True)
class Segment:
    """Half-open sample range [start, stop) of one phase of the trace."""

    kind: str  # 'charge' | 'rest' | 'discharge'
    start: int
    stop: int


def segment_trace(trace: Trace, cfg: IdentificationConfig) -> list[Segment]:
    """Label contiguous charge / rest / discharge phases."""
    current = trace.current
    thr = cfg.current_zero_threshold
    labels = np.where(current > thr, 1, np.where(current < -thr, -1, 0))
    max_abs = float(np.max(np.abs(current)))
    if max_abs > 0.0 and max_abs <= thr:
        warnings.warn(
            f"current-zero threshold {thr} A swallows the whole profile (max |i| = {max_abs} A)",
            FitQualityWarning,
            stacklevel=2,
        )
    if not np.any(labels == 0):
        raise UnusableTraceError("trace contains no rest segment")

    kinds = {1: "charge", 0: "rest", -1: "discharge"}
    boundaries = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [labels.size]))

    return [
        Segment(kinds[int(labels[start])], int(start), int(stop))
        for start, stop in zip(starts, stops)
    ]


def _jump_points(trace: Trace, cfg: IdentificationConfig) -> tuple[dict[float, list[float]], int]:
    """Voltage jumps paired with their step currents, detrended locally.

    The cell keeps drifting during the jump interval (RC charging, slow
    capacitor motion), so the raw voltage difference overstates the
    instantaneous drop; the mean drift of the two neighbouring jump-free
    intervals is subtracted, which reads the jump against the local trend.
    """
    voltage = trace.require_voltage()
    current = trace.current
    thr = cfg.current_zero_threshold
    step_thr = 10.0 * thr
    is_jump = np.abs(np.diff(current)) > step_thr

    points: dict[float, list[float]] = {}
    skipped = 0
    n = current.size
    for k in np.flatnonzero(is_jump):
        drifts = []
        if k - 1 >= 0 and not is_jump[k - 1]:
            drifts.append(voltage[k] - voltage[k - 1])
        if k + 2 < n and not is_jump[k + 1]:
            drifts.append(voltage[k + 2] - voltage[k + 1])
        drift = float(np.mean(drifts)) if drifts else 0.0
        dv = voltage[k + 1] - voltage[k] - drift
        i_from, i_to = current[k], current[k + 1]
        if abs(i_from) <= thr:
            points.setdefault(float(i_to), []).append(float(dv))
        elif abs(i_to) <= thr:
            points.setdefault(float(i_from), []).append(float(-dv))
        else:
            skipped += 1
    return points, skipped


def fit_instantaneous(trace: Trace, cfg: IdentificationConfig) -> MonotoneCurve:
    """Nonlinear-resistor characteristic from simultaneous current/voltage jumps.

    Each step into or out of rest pairs the voltage jump with the step current;
    repeats at the same current are averaged, the curve is pinned through
    (0, 0) and projected to nondecreasing if measurement noise broke order.
    """
    points, skipped = _jump_points(trace, cfg)
    if skipped:
        warnings.warn(
            f"{skipped} current steps did not border a rest phase and were ignored",
            FitQualityWarning,
            stacklevel=2,
        )
    if not points:
        raise UnusableTraceError("no current steps found; cannot fit the instantaneous dipole")

    amplitudes = sorted(points)
    if len(amplitudes) < 2:
        i1 = amplitudes[0]
        r = float(np.mean(points[i1])) / i1
        warnings.warn(
            f"only one step amplitude ({i1} A); returning a single-resistance curve "
            f"({r:.6g} ohm)",
            FitQualityWarning,
            stacklevel=2,
        )
        span = abs(i1)
        return MonotoneCurve([-span, 0.0, span], [-r * span, 0.0, r * span])

    grid = np.array(amplitudes)
    vals = np.array([np.mean(points[i]) for i in amplitudes])
    if 0.0 not in points:
        grid = np.sort(np.append(grid, 0.0))
        vals = np.insert(vals, int(np.searchsorted(grid, 0.0)), 0.0)
    zero_idx = int(np.flatnonzero(grid == 0.0)[0])
    if np.any(np.diff(vals) < 0.0):
        warnings.warn(
            "instantaneous-resistor points are not monotone; applying isotonic projection",
            FitQualityWarning,
            stacklevel=2,
        )
        w = np.ones_like(vals)
        w[zero_idx] = 1e12  # keep the exact (0, 0) anchor
        vals = isotonic_nondecreasing(vals, w)
    vals[zero_idx] = 0.0
    return MonotoneCurve(grid, vals)


@dataclass(eq=False)
class RcFitDiagnostics:
    """What the relaxation fit saw, for reports and cross-checks."""

    taus: np.ndarray
    amplitudes: np.ndarray
    v_inf: float
    residual_rms: float
    iterations: int
    notes: list[str] = field(default_factory=list)


def _design_matrix(s: np.ndarray, taus: np.ndarray) -> np.ndarray:
    cols = [np.ones_like(s)] + [np.exp(-s / tau) for tau in taus]
    return np.column_stack(cols)


def _fit_multi_exponential(
    t: np.ndarray,
    y: np.ndarray,
    n_terms: int,
    tau_lo: float,
    tau_hi: float,
    spread: float = 1.0,
    max_iter: int = 200,
):
    """Separable least squares for y = v_inf + sum a_i exp(-t/tau_i).

    Damped Gauss-Newton on log tau; the amplitudes and offset are solved
    linearly at every trial point (variable projection). Several terms start
    evenly spaced in log tau over the lowest ``spread`` fraction of
    [tau_lo, tau_hi].
    """
    s = t - t[0]
    if tau_hi <= tau_lo:
        tau_hi = tau_lo * 10.0
    theta = np.log(np.geomspace(tau_lo, tau_lo * (tau_hi / tau_lo) ** spread, n_terms)) \
        if n_terms > 1 else np.array([0.5 * (math.log(tau_lo) + math.log(tau_hi))])
    lo, hi = math.log(tau_lo / 10.0), math.log(tau_hi * 10.0)

    def solve_linear(th):
        phi = _design_matrix(s, np.exp(th))
        coef, *_ = np.linalg.lstsq(phi, y, rcond=None)
        res = y - phi @ coef
        return phi, coef, res

    phi, coef, res = solve_linear(theta)
    cost = float(res @ res)
    # Residuals at this level are floating-point dust relative to the data.
    y_scale = max(float(np.max(np.abs(y - np.mean(y)))), 1e-12)
    cost_floor = (1e-10 * y_scale) ** 2 * y.size
    lam = 1e-3
    iterations = 0
    converged = cost <= cost_floor
    for iterations in range(1, max_iter + 1):
        if converged:
            break
        taus = np.exp(theta)
        # Kaufman variable-projection Jacobian: the raw sensitivity columns are
        # projected onto the complement of the current linear span, which is
        # what restores Gauss-Newton's fast convergence.
        q, _ = np.linalg.qr(phi)
        d = np.column_stack(
            [-coef[1 + k] * (s / taus[k]) * np.exp(-s / taus[k]) for k in range(n_terms)]
        )
        jac = d - q @ (q.T @ d)
        jtj = jac.T @ jac
        jtr = jac.T @ res
        dj = np.diag(jtj).copy()
        dj = np.maximum(dj, 1e-12 * max(float(np.max(dj)), 1e-300))
        stepped = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(dj), -jtr)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                trial = np.clip(theta + delta, lo, hi)
                phi_t, coef_t, res_t = solve_linear(trial)
                cost_t = float(res_t @ res_t)
                if cost_t <= cost:
                    improvement = cost - cost_t
                    theta, phi, coef, res, cost = trial, phi_t, coef_t, res_t, cost_t
                    lam = max(lam / 3.0, 1e-12)
                    stepped = True
                    if (
                        cost <= cost_floor
                        or improvement <= 1e-11 * max(cost, 1e-300)
                        or np.max(np.abs(delta)) < 1e-12
                    ):
                        converged = True
                    break
            lam *= 5.0
            if lam > 1e12:
                break
        if not stepped:
            converged = True  # damping exhausted: no downhill direction remains
            break
    if not converged:
        raise FitConvergenceError(
            f"relaxation fit did not converge in {max_iter} iterations "
            f"(residual rms {math.sqrt(cost / y.size):.3e} V)"
        )
    taus = np.exp(theta)
    order = np.argsort(taus)
    return (
        float(coef[0]),
        np.asarray(coef[1:])[order],
        taus[order],
        math.sqrt(cost / y.size),
        iterations,
    )


def fit_rc_groups(
    rest_segment: Trace, n_rc: int, excitation: Trace
) -> tuple[list[RcGroup], RcFitDiagnostics]:
    """RC groups from a zero-current relaxation tail and the current that excited it.

    Fits v(t) = v_inf + sum a_i exp(-t/tau_i); tau comes out ascending. Time
    constants that collapse (ratio < 1.5) from two starting points reduce the
    model order with a warning. ``excitation`` is the measured trace from
    electrical rest up to and including the first sample of the relaxation;
    each resistance is the amplitude divided by the voltage that a
    unit-resistance group of the same tau reaches at its last sample. A group
    whose resistance comes out nonpositive or infinite is dropped with a
    warning; if none is left the fit fails.
    """
    y = rest_segment.require_voltage()
    t = rest_segment.timestamps
    if n_rc < 1:
        raise ConfigurationError("n_rc must be at least 1")
    dt = float(np.median(np.diff(t)))
    span = float(t[-1] - t[0])
    if span <= 0.0 or y.size < 2 * (n_rc + 1):
        raise UnusableTraceError("rest segment too short to fit the requested RC groups")
    tau_lo, tau_hi = 10.0 * dt, span / 3.0

    notes: list[str] = []
    n_fit = n_rc
    while True:
        # A collapse can be a local minimum of the default start rather than a
        # missing mode, so it is refitted once from the lower half of the tau
        # range before the model order is reduced.
        for spread in (1.0, 0.5):
            v_inf, amps, taus, rms, iters = _fit_multi_exponential(
                t, y, n_fit, tau_lo, tau_hi, spread
            )
            ratios = taus[1:] / taus[:-1]
            if not np.any(ratios < 1.5):
                break
            notes.append(f"tau collapse (ratios {np.round(ratios, 3)}) from start spread {spread}")
        else:
            warnings.warn(
                f"time constants collapsed (ratios {np.round(ratios, 3)}); "
                f"reducing model order to {n_fit - 1}",
                FitQualityWarning,
                stacklevel=2,
            )
            notes.append(f"tau collapse: refit with {n_fit - 1} groups")
            n_fit -= 1
            continue
        if n_fit > 1:
            # A term the optimizer parked at zero amplitude is the same
            # degeneracy in another guise: the data has fewer modes.
            dead = np.abs(amps) < 1e-6 * max(float(np.max(np.abs(amps))), 1e-30)
            if np.any(dead):
                warnings.warn(
                    f"{int(np.count_nonzero(dead))} relaxation terms have negligible "
                    f"amplitude; reducing model order to {n_fit - 1}",
                    FitQualityWarning,
                    stacklevel=2,
                )
                notes.append(f"negligible amplitude: refit with {n_fit - 1} groups")
                n_fit -= 1
                continue
        break

    tail = y[int(0.9 * y.size):]
    diag = RcFitDiagnostics(taus, amps, v_inf, rms, iters, notes)
    if rms > 50.0 * max(float(np.std(tail)), 1e-12):
        # Residual far above the settled tail's flatness: model order too low.
        warnings.warn(
            f"relaxation fit residual ({rms:.3e} V rms) is much larger than the settled "
            "tail noise; the decay likely needs more RC groups",
            FitQualityWarning,
            stacklevel=2,
        )
        notes.append("underfit: residual far above tail flatness")

    unit = reconstruct_v_dyn(
        excitation.timestamps, excitation.current, [RcGroup(1.0, float(tau)) for tau in taus]
    )[-1]
    groups = []
    for a, tau, g in zip(amps.tolist(), taus.tolist(), unit.tolist()):
        r = a / g if g != 0.0 else math.inf
        if not (0.0 < r < math.inf):
            warnings.warn(
                f"dropping RC group tau={tau:.6g} s: amplitude {a:.3e} V over unit "
                f"response {g:.3e} V gives resistance {r:.3e} ohm",
                FitQualityWarning,
                stacklevel=2,
            )
            continue
        groups.append(RcGroup(r, tau))
    if not groups:
        raise FitConvergenceError("no usable RC group could be recovered from the relaxation")
    return groups, diag


def decompose(trace: Trace, rc, resistor: MonotoneCurve) -> np.ndarray:
    """Quasi-stationary voltage by subtraction of the fitted contributions.

    The dynamic part is reconstructed by integrating the fitted RC groups over
    the measured current (starting from rest at the trace head).
    """
    voltage = trace.require_voltage()
    v_dyn = reconstruct_v_dyn(trace.timestamps, trace.current, tuple(rc))
    return voltage - v_dyn.sum(axis=1) - resistor.eval(trace.current)


def build_q_curve(
    v_qst_series: np.ndarray,
    current_series: np.ndarray,
    timestamps: np.ndarray,
    grid_size: int = 96,
    zero_threshold: float = 0.0,
) -> tuple[MonotoneCurve, MonotoneCurve, MonotoneCurve]:
    """Charge-vs-voltage characteristic, split by current sign.

    Returns (charge branch, discharge branch, mean). The cumulative current
    integral is paired with the quasi-stationary voltage, each branch is
    resampled onto a common voltage grid, and the mean is their pointwise
    average (the hysteresis-averaging choice). Non-monotone branches are
    repaired by isotonic projection with a warning.
    """
    v = np.asarray(v_qst_series, dtype=float)
    i = np.asarray(current_series, dtype=float)
    t = np.asarray(timestamps, dtype=float)
    if not (v.shape == i.shape == t.shape):
        raise InvalidParametersError("series must be aligned")
    dq = interval_currents(i) * np.diff(t)
    q = np.concatenate(([0.0], np.cumsum(dq)))

    def branch(mask: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
        if np.count_nonzero(mask) < 2:
            raise UnusableTraceError(f"{name} branch has fewer than two samples")
        vb, qb = v[mask], q[mask]
        order = np.argsort(vb, kind="stable")
        vb, qb = vb[order], qb[order]
        vu, inverse = np.unique(vb, return_inverse=True)
        if vu.size < 2:
            raise UnusableTraceError(f"{name} branch spans a degenerate voltage interval")
        qu = np.bincount(inverse, weights=qb) / np.bincount(inverse)
        if np.any(np.diff(qu) < 0.0):
            warnings.warn(
                f"{name} branch charge is not monotone in voltage; applying isotonic projection",
                FitQualityWarning,
                stacklevel=3,
            )
            qu = isotonic_nondecreasing(qu)
        return vu, qu

    v_c, q_c = branch(i > zero_threshold, "charge")
    v_d, q_d = branch(i < -zero_threshold, "discharge")
    lo = max(v_c[0], v_d[0])
    hi = min(v_c[-1], v_d[-1])
    if hi <= lo:
        raise UnusableTraceError("charge and discharge branches do not overlap in voltage")
    grid = np.linspace(lo, hi, grid_size)
    charge = MonotoneCurve(grid, np.interp(grid, v_c, q_c))
    discharge = MonotoneCurve(grid, np.interp(grid, v_d, q_d))
    mean = MonotoneCurve(grid, 0.5 * (charge.values + discharge.values))
    return charge, discharge, mean


def estimate_capacitance(
    mean_q: MonotoneCurve,
    grid_size: int,
    smoothing_halfwidth: int = 0,
) -> tuple[MonotoneCurve, float]:
    """Static capacitance dQ/dV of the mean charge characteristic.

    The charge curve is resampled uniformly, smoothed by a centered moving
    average, then differentiated by central differences. The abscissa of the
    maximum defines the nominal voltage.
    """
    if grid_size < 16:
        raise ConfigurationError("capacitance grid needs at least 16 points")
    grid = np.linspace(mean_q.x_min, mean_q.x_max, grid_size)
    qs = mean_q.eval(grid)
    if smoothing_halfwidth > 0:
        w = 2 * smoothing_halfwidth + 1
        padded = np.pad(qs, smoothing_halfwidth, mode="edge")
        qs = np.convolve(padded, np.full(w, 1.0 / w), mode="valid")
    cap = np.gradient(qs, grid)
    if np.any(cap <= 0.0):
        raise InvalidParametersError(
            "capacitance estimate is not strictly positive; the charge characteristic is "
            "too flat or too noisy at this smoothing"
        )
    v_n = float(grid[int(np.argmax(cap))])
    return MonotoneCurve(grid, cap), v_n


@dataclass(eq=False)
class StageReport:
    stage: str
    residual_rms: float | None = None
    iterations: int | None = None
    notes: list[str] = field(default_factory=list)


@dataclass(eq=False)
class FitReport:
    stages: list[StageReport] = field(default_factory=list)

    def add(self, stage: str, residual_rms=None, iterations=None, notes=()) -> None:
        self.stages.append(StageReport(stage, residual_rms, iterations, list(notes)))

    def to_text(self) -> str:
        lines = ["identification fit report"]
        for s in self.stages:
            lines.append(f"stage: {s.stage}")
            lines.append(f"  residual_rms: {'n/a' if s.residual_rms is None else repr(s.residual_rms)}")
            lines.append(f"  iterations: {'n/a' if s.iterations is None else s.iterations}")
            for note in s.notes:
                lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


@dataclass(eq=False)
class IdentificationResult:
    params: CellParameters
    report: FitReport


def _stage(name: str, fn, *args):
    """Run one identification stage: ``(fn(*args), notes)``.

    The notes are the messages of the warnings the stage raised, a
    ``FitQualityWarning`` on every occurrence. A ``UnusableTraceError``,
    ``FitConvergenceError``, ``InvalidParametersError`` or ``ConfigurationError``
    is re-raised with ``[name]`` prefixed to its message.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", FitQualityWarning)
        try:
            result = fn(*args)
        except (UnusableTraceError, FitConvergenceError, InvalidParametersError,
                ConfigurationError) as exc:
            raise type(exc)(f"[{name}] {exc}") from exc
    return result, [str(w.message) for w in caught]


def identify(trace: Trace, cfg: IdentificationConfig | None = None) -> IdentificationResult:
    """Full pipeline: segment, fit the three dipoles, assemble CellParameters.

    Each of the six stages runs through ``_stage``: a failure propagates with
    the failing stage named in its message, and the warnings a stage raises
    become that stage's first report notes. The result carries the per-stage
    fit-quality report.
    """
    cfg = cfg or IdentificationConfig()
    report = FitReport()

    segments, notes = _stage("segmentation", segment_trace, trace, cfg)
    notes.append(
        f"{len(segments)} segments: "
        + ", ".join(f"{s.kind}[{s.start}:{s.stop}]" for s in segments[:12])
        + ("..." if len(segments) > 12 else "")
    )
    report.add("segmentation", notes=notes)

    resistor, notes = _stage("instantaneous-fit", fit_instantaneous, trace, cfg)
    report.add("instantaneous-fit", residual_rms=_instantaneous_spread(trace, cfg, resistor),
               notes=notes)

    (rest, groups, diag), notes = _stage("rc-fit", _fit_first_rest, trace, segments, cfg.n_rc)
    notes += diag.notes
    rest_v = trace.voltage[rest.start:rest.stop]
    offset_data = float(rest_v[0] - np.mean(rest_v[int(0.9 * rest_v.size):]))
    offset_fit = float(np.sum(diag.amplitudes))
    if abs(offset_fit) > 1e-12 and abs(offset_data - offset_fit) > 0.1 * abs(offset_fit):
        notes.append(
            f"sum-of-R cross-check mismatch: data offset {offset_data:.6g} V vs fitted "
            f"{offset_fit:.6g} V"
        )
    notes.append("groups: " + ", ".join(f"(r={g.r:.6g}, tau={g.tau:.6g})" for g in groups))
    report.add("rc-fit", residual_rms=diag.residual_rms, iterations=diag.iterations, notes=notes)

    v_qst, notes = _stage("decomposition", decompose, trace, groups, resistor)
    report.add("decomposition", residual_rms=float(np.std(v_qst[rest.start:rest.stop])),
               notes=notes + ["residual is the std of v_qst over the fitted rest segment"])

    (charge_b, discharge_b, mean_b), notes = _stage(
        "q-curve", build_q_curve, v_qst, trace.current, trace.timestamps,
        cfg.capacitance_grid_size, cfg.current_zero_threshold,
    )
    hysteresis = float(np.sqrt(np.mean((charge_b.values - discharge_b.values) ** 2)))
    report.add("q-curve", residual_rms=hysteresis,
               notes=notes + ["residual is the rms gap between charge and discharge branches"])

    (capacitance, _), notes = _stage(
        "capacitance", estimate_capacitance, mean_b, cfg.capacitance_grid_size,
        cfg.smoothing_halfwidth,
    )
    params = CellParameters.from_curves(
        capacitance.x_min, capacitance.x_max, capacitance, groups, resistor
    )
    notes.append(
        f"v_n = {params.nominal_voltage_v_n!r} V, delta_q = {params.delta_q!r} C, "
        f"window [{params.v_min!r}, {params.v_max!r}] V"
    )
    report.add("capacitance", notes=notes)
    return IdentificationResult(params, report)


def _instantaneous_spread(trace: Trace, cfg: IdentificationConfig,
                          resistor: MonotoneCurve) -> float:
    """RMS scatter of the individual jump points around the fitted curve."""
    points, _ = _jump_points(trace, cfg)
    residuals = [dv - resistor.eval(i) for i, dvs in points.items() for dv in dvs]
    return float(np.sqrt(np.mean(np.square(residuals))))


def _first_excited_rest(segments: list[Segment]) -> Segment:
    """First rest segment after a current pulse.

    Adjacent segments differ in kind, so that is any rest but a leading one.
    """
    for s in segments[1:]:
        if s.kind == "rest":
            return s
    raise UnusableTraceError("no rest segment follows a current pulse; cannot fit RC groups")


def _fit_first_rest(trace: Trace, segments: list[Segment], n_rc: int):
    """The RC fit on the first excited rest: ``(rest, groups, diagnostics)``."""
    rest = _first_excited_rest(segments)
    return (rest, *fit_rc_groups(trace.slice(rest.start, rest.stop), n_rc,
                                  trace.slice(0, rest.start + 1)))
