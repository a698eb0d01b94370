"""Nonlinear cell model: three series voltage contributions and its state form.

A cell is the series of a quasi-stationary dipole (nonlinear capacitor whose
voltage-dependent capacitance is the cell's "internal shape"), a dynamic
dipole (N first-order RC groups) and an instantaneous dipole (nonlinear
resistor). Terminal voltage is the plain sum of the three contributions.

Sign convention: positive current charges the cell.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import MonotoneCurve, _frozen_float_array
from .errors import InvalidInputError, InvalidParametersError, OutOfRangeWarning

# Tolerated quasi-stationary excursion (volts) past [v_min, v_max] before the
# state is clamped; lets an estimator recover from a bad initialization.
DEFAULT_VQST_GUARD = 0.05

# The most float64 samples one array can hold.
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class RcGroup:
    """One first-order relaxation branch: dv/dt = (r*i - v)/tau."""

    r: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise InvalidParametersError(f"rc group resistance must be > 0, got {self.r}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise InvalidParametersError(f"rc group time constant must be > 0, got {self.tau}")


@dataclass(frozen=True, eq=False)
class CellParameters:
    """Full identified model of one cell.

    capacitance maps quasi-stationary voltage [v_min, v_max] to farads, the
    resistor curve maps current to its instantaneous voltage drop (through
    (0, 0), nondecreasing), delta_q is the total charge stored across the
    voltage window, and nominal_voltage_v_n marks the capacitance peak.
    """

    v_min: float
    v_max: float
    capacitance: MonotoneCurve
    rc_groups: tuple[RcGroup, ...]
    resistor: MonotoneCurve
    delta_q: float
    nominal_capacity_c_n: float
    nominal_voltage_v_n: float

    def __post_init__(self):
        if not (math.isfinite(self.v_min) and math.isfinite(self.v_max) and self.v_min < self.v_max):
            raise InvalidParametersError("voltage window must satisfy v_min < v_max")
        cap = self.capacitance
        if cap.x_min != self.v_min or cap.x_max != self.v_max:
            raise InvalidParametersError("capacitance curve must span exactly [v_min, v_max]")
        if np.any(cap.values <= 0.0):
            raise InvalidParametersError("capacitance must be strictly positive everywhere")
        groups = tuple(self.rc_groups)
        if len(groups) < 1:
            raise InvalidParametersError("at least one RC group is required")
        taus = [g.tau for g in groups]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise InvalidParametersError("RC time constants must be strictly increasing")
        object.__setattr__(self, "rc_groups", groups)
        res = self.resistor
        if res.eval(0.0) != 0.0:
            raise InvalidParametersError("resistor curve must pass through (0, 0) exactly")
        if np.any(np.diff(res.values) < 0.0):
            raise InvalidParametersError("resistor curve must be nondecreasing")
        integral = cap.integrate(self.v_min, self.v_max)
        if not math.isfinite(self.delta_q) or abs(self.delta_q - integral) > 1e-9 * abs(integral):
            raise InvalidParametersError(
                f"delta_q ({self.delta_q}) must equal the capacitance integral ({integral})"
            )
        # A subnormal capacitance integrates to 0; SoC divides by delta_q.
        if not self.delta_q > 0.0:
            raise InvalidParametersError(f"delta_q must be positive, got {self.delta_q}")
        if not (math.isfinite(self.nominal_capacity_c_n) and self.nominal_capacity_c_n > 0.0):
            raise InvalidParametersError("nominal capacity must be positive")
        v_n = float(cap.grid[int(np.argmax(cap.values))])
        if self.nominal_voltage_v_n != v_n:
            raise InvalidParametersError(
                f"nominal voltage ({self.nominal_voltage_v_n}) must sit at the capacitance "
                f"maximum ({v_n})"
            )
        # Hot-path caches, read-only like the curves' arrays.
        object.__setattr__(self, "_taus", _frozen_float_array([g.tau for g in groups], "taus"))
        object.__setattr__(self, "_rs", _frozen_float_array([g.r for g in groups], "rs"))

    @classmethod
    def from_curves(
        cls,
        v_min: float,
        v_max: float,
        capacitance: MonotoneCurve,
        rc_groups,
        resistor: MonotoneCurve,
        nominal_capacity: float | None = None,
    ) -> "CellParameters":
        """Build parameters with delta_q and v_n derived from the curves.

        nominal_capacity defaults to delta_q (the charge the window holds).
        """
        delta_q = capacitance.integrate(v_min, v_max)
        v_n = float(capacitance.grid[int(np.argmax(capacitance.values))])
        return cls(
            v_min=v_min,
            v_max=v_max,
            capacitance=capacitance,
            rc_groups=tuple(rc_groups),
            resistor=resistor,
            delta_q=delta_q,
            nominal_capacity_c_n=delta_q if nominal_capacity is None else nominal_capacity,
            nominal_voltage_v_n=v_n,
        )

    @property
    def n_rc(self) -> int:
        return len(self.rc_groups)

    @property
    def taus(self) -> np.ndarray:
        return self._taus

    @property
    def rs(self) -> np.ndarray:
        return self._rs

    @property
    def tau_min(self) -> float:
        return self.rc_groups[0].tau

    @property
    def dt_guard(self) -> float:
        """tau_min / 5, a fifth of the fastest RC time constant. The model step
        is exact at any dt, one step per interval, so nothing is sub-stepped by
        it; it only names a step that is short against tau_min."""
        return self.tau_min / 5.0


@dataclass(eq=False)
class CellState:
    """Physical state of one cell: quasi-stationary voltage plus the RC voltages."""

    v_qst: float
    v_dyn_components: np.ndarray

    def __post_init__(self):
        comps = np.array(self.v_dyn_components, dtype=float).reshape(-1)
        # A non-finite entry poisons the sum, so one scalar check suffices.
        if not math.isfinite(self.v_qst) or not math.isfinite(float(comps.sum())):
            raise InvalidInputError("cell state must be finite")
        self.v_dyn_components = comps

    def copy(self) -> "CellState":
        return CellState(self.v_qst, self.v_dyn_components.copy())

    @classmethod
    def rest(cls, v_qst: float, n_rc: int) -> "CellState":
        """Relaxed state (all RC voltages zero) at the given level."""
        return cls(v_qst, np.zeros(n_rc))


@dataclass(frozen=True, eq=False)
class Trace:
    """Time-aligned samples of current (and optionally voltage).

    Current profiles carry voltage=None; measured traces carry all three
    columns. Timestamps are strictly increasing seconds.
    """

    timestamps: np.ndarray
    current: np.ndarray
    voltage: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        i = np.asarray(self.current, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidParametersError("trace needs at least two samples")
        if i.shape != t.shape:
            raise InvalidParametersError("current must match timestamps in length")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(i)):
            raise InvalidParametersError("trace samples must be finite")
        if not np.all(np.diff(t) > 0.0):
            raise InvalidParametersError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "current", i)
        if self.voltage is not None:
            v = np.asarray(self.voltage, dtype=float)
            if v.shape != t.shape or not np.all(np.isfinite(v)):
                raise InvalidParametersError("voltage must be finite and match timestamps")
            object.__setattr__(self, "voltage", v)

    def __len__(self) -> int:
        return self.timestamps.size

    def require_voltage(self) -> np.ndarray:
        if self.voltage is None:
            raise InvalidInputError("trace has no voltage column")
        return self.voltage

    def slice(self, start: int, stop: int) -> "Trace":
        v = None if self.voltage is None else self.voltage[start:stop]
        return Trace(self.timestamps[start:stop], self.current[start:stop], v)


def _check_finite(**named) -> None:
    for name, value in named.items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")


def charge_map(capacitance: MonotoneCurve, v0: float, charge: float) -> tuple[float, float]:
    """Exact quasi-stationary voltage after ``charge`` coulombs enter the capacitor.

    With Q(v) the integral of C(v), dv/dt = i / C(v) solves exactly as
    Q(v1) = Q(v0) + i*dt, so any constant-current interval is one call with
    charge = i*dt, however long. Returns (v1, C(v0) / C(v1)); the ratio is
    dv1/dv0, the transition Jacobian entry. Zero charge returns v0 unchanged.
    Past the window C continues as its endpoint value, so Q is linear there.
    """
    if charge == 0.0:
        return v0, 1.0
    q0, c0 = capacitance.integral_and_value(v0)
    v1, c1 = capacitance.inverse_integral(q0 + charge)
    return v1, c0 / c1


def _charge_map_lines() -> tuple[list[str], list[str]]:
    """``charge_map`` as source lines (setup, body), for kernels that inline it
    per sample.

    The setup, run once before the loop, reads the ends of the capacitance
    tables ``cg, cc, ck`` (grid, values and knot integrals,
    ``MonotoneCurve._tables``) into ``cg_lo, cg_hi, cc_lo, cc_hi, ck_hi``.
    The body reads those, the tables and the locals ``v`` and ``charge``, and
    sets ``v, f0`` to what ``charge_map(capacitance, v, charge)`` returns, bit
    for bit: ``integral_and_value`` then ``inverse_integral``, the same
    expressions in the same order (``if w < 0.0: w = 0.0`` keeps a NaN and a
    -0.0 as ``max(w, 0.0)`` does). The body needs ``bisect_right`` and
    ``sqrt`` in scope, uses the temporaries ``cj, cx, cq, dq, slope, w, c0,
    c1`` and both lists are indented from 0.
    """
    setup = ["cg_lo, cg_hi, cc_lo, cc_hi, ck_hi = cg[0], cg[-1], cc[0], cc[-1], ck[-1]"]
    body = [
        "if charge == 0.0:",
        "    f0 = 1.0",
        "else:",
        "    if v <= cg_lo:",
        "        c0 = cc_lo",
        "        cq = (v - cg_lo) * c0",
        "    elif v >= cg_hi:",
        "        c0 = cc_hi",
        "        cq = ck_hi + (v - cg_hi) * c0",
        "    else:",
        "        cj = bisect_right(cg, v) - 1",
        "        cx = v - cg[cj]",
        "        c0 = cc[cj] + (cc[cj + 1] - cc[cj]) * cx / (cg[cj + 1] - cg[cj])",
        "        cq = ck[cj] + 0.5 * (cc[cj] + c0) * cx",
        "    cq = cq + charge",
        "    if cq <= 0.0:",
        "        c1 = cc_lo",
        "        v = cg_lo + cq / c1",
        "    elif cq >= ck_hi:",
        "        c1 = cc_hi",
        "        v = cg_hi + (cq - ck_hi) / c1",
        "    else:",
        "        cj = bisect_right(ck, cq) - 1",
        "        dq = cq - ck[cj]",
        "        cx = cc[cj]",
        "        slope = (cc[cj + 1] - cx) / (cg[cj + 1] - cg[cj])",
        "        w = cx * cx + 2.0 * slope * dq",
        "        if w < 0.0:",
        "            w = 0.0",
        "        c1 = sqrt(w)",
        "        v = cg[cj] + 2.0 * dq / (cx + c1)",
        "    f0 = c0 / c1",
    ]
    return setup, body


# Static messages, so repeated clamps deduplicate under the default filter.
def _current_clamp_message(resistor: MonotoneCurve) -> str:
    lo, hi = resistor.x_min, resistor.x_max
    return f"current outside the resistor curve range [{lo}, {hi}] A, clamped"


def _soc_clamp_message(params: CellParameters) -> str:
    return f"v_qst outside [{params.v_min}, {params.v_max}] V, clamped"


def soc_from_vqst(params: CellParameters, v_qst: float) -> float:
    """State of charge from the capacitance curve, integrated over voltage.

    Returns the fraction of delta_q stored between v_min and v_qst; inputs
    outside the window are clamped with a warning.
    """
    return _soc_from_vqst(params, v_qst, 3)


def _soc_from_vqst(params: CellParameters, v_qst: float, stacklevel: int) -> float:
    """``soc_from_vqst``, its warning attributed ``stacklevel`` frames up from here."""
    _check_finite(v_qst=v_qst)
    if v_qst < params.v_min or v_qst > params.v_max:
        warnings.warn(_soc_clamp_message(params), OutOfRangeWarning, stacklevel=stacklevel)
        v_qst = min(max(v_qst, params.v_min), params.v_max)
    # The curve starts at v_min, so its running integral there is exactly 0.
    return params.capacitance.integral_and_value(v_qst)[0] / params.delta_q


def vqst_from_soc(params: CellParameters, soc: float) -> float:
    """Inverse of soc_from_vqst: the voltage at which the window holds soc*delta_q."""
    _check_finite(soc=soc)
    if soc < 0.0 or soc > 1.0:
        warnings.warn("soc outside [0, 1], clamped", OutOfRangeWarning, stacklevel=2)
        soc = min(max(soc, 0.0), 1.0)
    # The window holds soc*delta_q once that charge has entered from empty.
    v, _ = charge_map(params.capacitance, params.v_min, soc * params.delta_q)
    return min(max(v, params.v_min), params.v_max)


def coulomb_count(trace: Trace, c_n: float, soc0: float) -> np.ndarray:
    """Reference SoC by trapezoidal current integration scaled by 1/c_n.

    Values are deliberately not clamped to [0, 1]; leaving the range only
    raises a warning, since the definition itself does not clamp.
    """
    if not (math.isfinite(c_n) and c_n > 0.0):
        raise InvalidInputError(f"nominal capacity must be positive, got {c_n}")
    if not (math.isfinite(soc0) and 0.0 <= soc0 <= 1.0):
        raise InvalidInputError(f"initial SoC must be within [0, 1], got {soc0}")
    dt = np.diff(trace.timestamps)
    increments = interval_currents(trace.current) * dt
    soc = soc0 + np.concatenate(([0.0], np.cumsum(increments))) / c_n
    if np.any(soc < 0.0) or np.any(soc > 1.0):
        warnings.warn(
            f"coulomb-counting SoC leaves [0, 1] (range [{soc.min():.4f}, {soc.max():.4f}])",
            OutOfRangeWarning,
            stacklevel=2,
        )
    return soc


def interval_currents(current: np.ndarray) -> np.ndarray:
    """Effective current over each sample interval (mean of the endpoints).

    This is the trapezoid-consistent reading of a sampled profile and is used
    by every routine that integrates a trace, so model charge bookkeeping and
    coulomb counting agree.
    """
    current = np.asarray(current, dtype=float)
    return 0.5 * (current[:-1] + current[1:])


def reconstruct_v_dyn(
    timestamps: np.ndarray,
    current: np.ndarray,
    rc_groups,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """RC voltages driven by a sampled current, one row per sample.

    Exact zero-order-hold integration of each group with the interval current
    convention; starts from rest unless ``initial`` is given. Interval k maps
    x to a_k x + b_k, a_k = exp(-dt_k / tau), b_k = r i_k (1 - a_k). A doubling
    (Hillis–Steele) prefix scan composes the maps into x_k = A_k x_0 + B_k in
    ceil(log2 n) whole-array passes, O(n log n) work; A_k is a product of
    decays ≤ 1, so a long gap underflows to 0 and nothing overflows. The scan
    adds in another order than the per-sample recurrence x_k = a_k x_{k-1} +
    b_k (the filter's step), so the two agree to rounding, not bit for bit.
    """
    t = np.asarray(timestamps, dtype=float)
    groups = tuple(rc_groups)
    taus = np.array([g.tau for g in groups])[:, None]
    rs = np.array([g.r for g in groups])[:, None]
    x0 = np.zeros(len(groups)) if initial is None else np.asarray(initial, dtype=float)
    a = np.exp(-np.diff(t) / taus)
    b = rs * interval_currents(current) * (1.0 - a)
    s = 1
    while s < a.shape[1]:
        b[:, s:] += a[:, s:] * b[:, :-s]
        a[:, s:] *= a[:, :-s]
        s *= 2
    return np.vstack((x0, (a * x0[:, None] + b).T))


@dataclass(eq=False)
class SimulationResult:
    """Forward-simulation output: the measured-like trace plus the state log."""

    trace: Trace
    v_qst: np.ndarray
    v_dyn: np.ndarray
    saturation_events: list = field(default_factory=list)


def _running_charge(q0: float, charges: np.ndarray, q_lo: float,
                    q_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The running charge S_0 = q0, S_k = S_{k-1} + charges[k-1], and the
    samples k >= 1 where it was clamped: an S_k outside [q_lo, q_hi] restarts
    the sum at that bound.

    One cumsum forms the sum; it adds left to right, so it gives the
    per-sample loop's bits. A clamp changes every later sum, so the loop runs
    only from the first sample that leaves the window.
    """
    running = np.cumsum(np.concatenate(([q0], charges)))
    sums = running[1:]
    outside = np.flatnonzero((sums < q_lo) | (sums > q_hi))
    clamped: list[int] = []
    if outside.size:
        first = int(outside[0]) + 1
        s = running[first - 1].item()
        stored = memoryview(running)  # stores each sum's 8 bytes, no float object per sample
        for k, charge in enumerate(charges[first - 1:].tolist(), start=first):
            s += charge
            if s < q_lo or s > q_hi:
                s = q_lo if s < q_lo else q_hi
                clamped.append(k)
            stored[k] = s
    return running, np.array(clamped, dtype=np.intp)


def simulate(
    params: CellParameters,
    profile: Trace,
    initial: CellState,
) -> SimulationResult:
    """Integrate the cell along a current profile and record terminal voltage.

    The charge map composes exactly, so v_qst is Q⁻¹ of the running charge
    S_k = Q(v0) + (sum of the interval charges up to sample k), added left to
    right by one cumsum (``_running_charge``). The sum is clamped in charge
    space to [Q(lo), Q(hi)], the window plus the saturation guard: a clamp
    restarts it at the bound, the sample takes exactly the bound voltage and a
    saturation event (time, bound) is collected on the result. Only from the
    first sample that leaves the window does a per-sample loop run. A sample
    whose running charge equals, bit for bit, the one at its anchor (the start
    or the last clamp) keeps the anchor's voltage, so a rest moves nothing.
    The RC columns come from reconstruct_v_dyn, and a single warning
    summarizes any currents clamped by the resistor curve.
    """
    t = profile.timestamps
    current = profile.current
    if initial.v_dyn_components.size != params.n_rc:
        raise InvalidInputError("initial state does not match the parameter set")
    cap = params.capacitance
    res = params.resistor
    lo = params.v_min - DEFAULT_VQST_GUARD
    hi = params.v_max + DEFAULT_VQST_GUARD
    q_lo = cap.integral_and_value(lo)[0]
    q_hi = cap.integral_and_value(hi)[0]

    v0 = float(initial.v_qst)
    charges = interval_currents(current) * np.diff(t)
    running, clamped = _running_charge(cap.integral_and_value(v0)[0], charges, q_lo, q_hi)
    bounds = np.where(running[clamped] == q_lo, lo, hi)
    v_qst = cap.inverse_integral_array(running)
    v_qst[0] = v0
    v_qst[clamped] = bounds
    anchor = np.zeros(t.size, dtype=np.intp)
    anchor[clamped] = clamped
    np.maximum.accumulate(anchor, out=anchor)
    bits = running.view(np.int64)
    v_qst = np.where(bits == bits[anchor], v_qst[anchor], v_qst)
    events = list(zip(t[clamped].tolist(), bounds.tolist()))
    v_dyn = reconstruct_v_dyn(t, current, params.rc_groups, initial.v_dyn_components)

    total = v_qst + v_dyn.sum(axis=1) + res.eval(current)
    oor = np.count_nonzero((current < res.x_min) | (current > res.x_max))
    if oor:
        warnings.warn(
            f"{oor} profile samples outside the resistor curve range were clamped",
            OutOfRangeWarning,
            stacklevel=2,
        )
    out_trace = Trace(t, current, total)
    return SimulationResult(out_trace, v_qst, v_dyn, events)
