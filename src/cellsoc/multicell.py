"""Single-engine multi-cell estimation: one EKF time-sliced by round-robin.

Each cell owns a memory slot (its ``CellFilter`` and last service time). Every
t_slot seconds the scheduler services the next cell in fixed circular order:
it loads the slot, predicts over the per-cell elapsed time (a full revolution,
N * t_slot), corrects with that cell's freshest measurement and stores the
slot back. All other slots are untouched, so cells are isolated by
construction and the arithmetic is identical to N independent filters each
stepped at period N * t_slot.

Both paths call the slot's ``CellFilter``, which runs the estimator module's
one generated EKF sample body, on one grid anchored at ``start_time``:
service k is at start_time + (k + 1) * t_slot on cell k mod N. ``tick`` is the
online path, one ``service`` of the due slot per call. ``run`` filters the
rest of each cell's grid, after the services already made, as one
``series``, in cell order, so its bits, warnings and errors are those of
that loop on each cell alone, and ticking the same grid gives the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    InvalidInputError,
    InvalidParametersError,
    SchedulingViolationError,
    SchedulingWarning,
)
from .estimator import CellFilter, EkfConfig, EkfState, make_filter
from .model import _MAX_SAMPLES, CellParameters, _check_finite


def max_cells(f_max: float, t_slot: float) -> int:
    """Nyquist cell budget: floor(1 / (2 * f_max * t_slot)).

    The highest frequency present in the current draw dictates how rarely a
    cell may be sampled, hence how many cells one engine can serve.
    """
    if not (math.isfinite(f_max) and f_max > 0.0):
        raise InvalidInputError(f"f_max must be positive, got {f_max}")
    if not (math.isfinite(t_slot) and t_slot > 0.0):
        raise InvalidInputError(f"t_slot must be positive, got {t_slot}")
    product = 2.0 * f_max * t_slot  # underflows to 0 for tiny inputs
    budget = 1.0 / product if product > 0.0 else math.inf
    if not math.isfinite(budget):
        raise InvalidInputError(f"cell budget 1 / (2 * {f_max} Hz * {t_slot} s) is not finite")
    # The 1e-12 nudge absorbs representation dust when the bound is an integer.
    return int(math.floor(budget + 1e-12))


def check_cell_id(cell_id, what: str = "cell id") -> str:
    """``cell_id`` if it is a non-empty printable string free of ``,`` ``"``
    ``/`` and ``\\``, so it fits one SoC CSV field and one file name; else
    ConfigurationError naming ``what``."""
    if not (isinstance(cell_id, str) and cell_id and cell_id.isprintable()
            and not any(c in cell_id for c in ',"/\\')):
        raise ConfigurationError(f"{what} must be a non-empty printable string without "
                                 f"',', '\"', '/' or '\\', got {cell_id!r}")
    return cell_id


@dataclass(frozen=True)
class SchedulerConfig:
    """Round-robin schedule: slice length, fixed cell order, signal bandwidth.

    Cell ids must be ids that ``check_cell_id`` accepts, so every
    cell's estimates can be written as a SoC CSV.
    """

    t_slot: float
    cells: tuple[str, ...]
    f_max: float

    def __post_init__(self):
        if not (math.isfinite(self.t_slot) and self.t_slot > 0.0):
            raise InvalidParametersError(f"t_slot must be positive, got {self.t_slot}")
        if not (math.isfinite(self.f_max) and self.f_max > 0.0):
            raise InvalidParametersError(f"f_max must be positive, got {self.f_max}")
        cells = tuple(self.cells)
        if not cells:
            raise InvalidParametersError("at least one cell is required")
        for cell_id in cells:
            check_cell_id(cell_id)
        if len(set(cells)) != len(cells):
            raise InvalidParametersError("cell ids must be unique")
        object.__setattr__(self, "cells", cells)
        budget = max_cells(self.f_max, self.t_slot)
        if len(cells) > budget:
            raise BudgetExceededError(
                f"{len(cells)} cells exceed the budget: floor(1 / (2 * {self.f_max} Hz * "
                f"{self.t_slot} s)) = {budget}"
            )


class CellSlot(CellFilter):
    """Per-cell memory: the cell's ``CellFilter``, id and last service time."""

    def __init__(self, cell_id: str, ekf: EkfState, params_ref: CellParameters,
                 ekf_config: EkfConfig, last_serviced_t: float):
        super().__init__(params_ref, ekf_config, ekf)
        self.cell_id = cell_id
        self.last_serviced_t = last_serviced_t


@dataclass(frozen=True, slots=True)
class Measurement:
    cell_id: str
    current: float
    voltage: float


@dataclass(eq=False, slots=True)
class TickResult:
    cell_id: str
    time: float
    soc: float
    innovation: float


@dataclass(eq=False)
class CellSeries:
    """Per-cell output of a scheduled run. ``sample_index`` is, per service, the
    index of the trace sample it held; the counts are the cell's clamped
    currents, clamped v_qst and reused covariance steps (see ``FilterRun``)."""

    times: np.ndarray
    soc_est: np.ndarray
    sample_index: np.ndarray
    innovations: np.ndarray
    current_clamps: int = 0
    soc_clamps: int = 0
    reused_steps: int = 0


class MultiCellEkf:
    """The scheduler plus its memory slots; strictly single-threaded by design."""

    def __init__(self, config: SchedulerConfig, cell_setups, start_time: float = 0.0):
        """``cell_setups`` maps cell_id -> (CellParameters, EkfConfig).

        Slots are back-dated by one revolution so the first service of every
        cell, like all later ones, predicts over exactly N * t_slot (the slot
        content handed to prediction is always one revolution old).
        """
        self.config = config
        self.start_time = float(start_time)
        if not math.isfinite(self.start_time):
            raise InvalidParametersError(f"start time must be finite, got {start_time}")
        n = len(config.cells)
        # A service whose held sample is older than two revolutions is stale.
        self._stale_age = 2.0 * (n * config.t_slot) * (1.0 + 1e-9)
        self.slots: dict[str, CellSlot] = {}
        for j, cell_id in enumerate(config.cells):
            try:
                params, ekf_cfg = cell_setups[cell_id]
            except KeyError:
                raise InvalidInputError(f"no setup provided for cell {cell_id!r}") from None
            self.slots[cell_id] = CellSlot(cell_id, make_filter(ekf_cfg), params, ekf_cfg,
                                           self.start_time + (j + 1 - n) * config.t_slot)
        self._served = 0  # services made since start_time

    @property
    def due_cell(self) -> str:
        return self.config.cells[self._served % len(self.config.cells)]

    def tick(self, now: float, measurement: Measurement) -> TickResult:
        """Service the due cell: predict over its elapsed time, correct, store.

        The service is the slot's ``CellFilter.service``, one sample of its
        ``series``, so ticking a schedule gives ``run``'s bits. Its clamp
        warnings name the caller, and a tick that raises leaves the engine
        unchanged. Non-finite inputs are refused, and then out-of-order
        measurements, before the slot changes. A service more than two
        revolutions (2 N t_slot, to a relative 1e-9) after the slot's last one
        is made with a ``SchedulingWarning``: a ``Measurement`` has no time.
        """
        expected = self.due_cell
        if measurement.cell_id != expected:
            raise SchedulingViolationError(
                f"measurement for {measurement.cell_id!r} but {expected!r} is due"
            )
        slot = self.slots[expected]
        dt = now - slot.last_serviced_t
        i, z = measurement.current, measurement.voltage
        # Comparisons cost less than the call; _check_finite names the bad input.
        if not (-math.inf < i < math.inf and -math.inf < dt < math.inf
                and -math.inf < z < math.inf):
            _check_finite(now=now, current=i, dt=dt, measured_v=z)
        if dt <= 0.0:
            raise SchedulingViolationError(
                f"service time {now} does not advance past {slot.last_serviced_t}"
            )
        if dt > self._stale_age:
            warnings.warn(
                f"cell {expected!r} serviced after {dt:.6g} s (> 2 revolutions); "
                "update quality degraded",
                SchedulingWarning,
                stacklevel=2,
            )
        innovation = slot.service(dt, i, z)
        slot.last_serviced_t = now
        self._served += 1
        return TickResult(expected, now, slot.soc, innovation)

    def run(self, traces) -> dict[str, CellSeries]:
        """Execute the schedule over the shared horizon of the given traces.

        ``traces`` maps cell_id -> measured Trace. The run continues the grid
        from the services already made to the horizon, decimating each trace
        to its cell's service instants by zero-order hold; each
        ``CellSeries.sample_index`` says which sample every service held.

        Slots are isolated, so each cell's services are filtered as one series
        by its slot's ``CellFilter.series``, cell by cell in ring order; its
        warnings, at most one per kind of clamp and cell, are attributed to
        the caller, and each ``CellSeries`` carries its cell's counts. The
        engine ends as ticking the same services would leave it. A run that
        raises leaves the engine unchanged. The traces and every cell's
        service times are checked before any cell is filtered, so a cell whose
        last service (a late tick) is at or past its next grid instant is
        refused, and a refused run warns of nothing. One ``SchedulingWarning``
        counts the services whose held sample was taken more than two
        revolutions (to a relative 1e-9) before the service instant, and one
        names the cells whose trace runs more than a revolution past the
        horizon.
        """
        cells = self.config.cells
        n = len(cells)
        t_slot = self.config.t_slot
        for cell_id in cells:
            if cell_id not in traces:
                raise InvalidInputError(f"no trace provided for cell {cell_id!r}")
            traces[cell_id].require_voltage()
        horizon = min(float(traces[c].timestamps[-1]) for c in cells)
        served = self._served
        services = _service_count(self.start_time, t_slot, horizon)
        picks, stale = [], 0
        for j, cell_id in enumerate(cells):
            slot, t = self.slots[cell_id], traces[cell_id].timestamps
            # Service k (of all cells) happens at start + (k + 1) * t_slot on cell k mod N.
            first = served + (j - served) % n  # the cell's first service not yet made
            now = self.start_time + (np.arange(first, services, n) + 1) * t_slot
            # Slight forward nudge so a sample nominally at `now` is picked up
            # despite last-ulp differences in how the two times were computed.
            idx = np.searchsorted(t, now + 1e-9 * t_slot, side="right") - 1
            if idx.size and idx[0] < 0:
                raise InvalidInputError(
                    f"trace for {cell_id!r} starts after its first service instant {float(now[0])}"
                )
            prev = np.concatenate(([slot.last_serviced_t], now[:-1]))
            dt = now - prev
            stuck = np.flatnonzero(dt <= 0.0)
            if stuck.size:
                k = stuck[0]
                raise SchedulingViolationError(
                    f"service time {float(now[k])} does not advance past {float(prev[k])}"
                )
            picks.append((slot, now, idx, dt))
            stale += int(np.count_nonzero(now - t[idx] > self._stale_age))
        revolution = n * t_slot
        overrun = [c for c in cells
                   if traces[c].timestamps[-1] > horizon + revolution * (1.0 + 1e-9)]
        if overrun:
            warnings.warn(
                f"traces of {', '.join(map(repr, overrun))} run more than one revolution "
                f"past the shared horizon {horizon:.6g} s; their tails are not used",
                SchedulingWarning,
                stacklevel=2,
            )
        if stale:
            warnings.warn(
                f"{stale} services used a held sample older than two revolutions "
                f"({2.0 * revolution:.6g} s); update quality degraded",
                SchedulingWarning,
                stacklevel=2,
            )

        series, saved = {}, []
        try:
            for slot, now, idx, dt in picks:
                trace = traces[slot.cell_id]
                current = trace.current[idx]  # held through the revolution
                saved.append((slot, slot.ekf))  # to restore on a refusal, bit for bit
                soc, innovations, _, counts = slot.series(dt, current, trace.voltage[idx], current)
                series[slot.cell_id] = CellSeries(now, soc, idx, innovations, *counts)
        except BaseException:
            for slot, ekf in saved:
                slot.ekf = ekf
            raise
        for slot, now, _, _ in picks:
            if now.size:
                slot.last_serviced_t = float(now[-1])
        self._served = max(served, services)
        return series


def _service_count(start: float, t_slot: float, horizon: float) -> int:
    """How many services start + (k + 1) * t_slot, k = 0, 1, ..., fit by the horizon;
    InvalidInputError when no array could hold their times."""
    ratio = (horizon - start) / t_slot
    if not ratio <= _MAX_SAMPLES:
        raise InvalidInputError(
            f"services every {t_slot} s from {start} s to {horizon} s are more than one "
            f"array holds ({_MAX_SAMPLES})"
        )
    k = max(int(ratio), 0)
    # The quotient is a first guess; settle it with the service-time expression.
    while k > 0 and start + k * t_slot > horizon:
        k -= 1
    while start + (k + 1) * t_slot <= horizon:
        k += 1
    return k
