"""The round-robin engine's contract as a state machine.

hypothesis drives one ``MultiCellEkf`` over a pack drawn as
``ticked_packs`` draws them through any sequence of ticks (at the due
service's grid instant, or a revolution or more after the cell's last
service, with readings inside the window, past the resistor curve, at
1.7e308 V or not finite; of the wrong cell; at a time that does not
advance), slot reads and assignments, and ``run``s of the rest of the grid
(also with a cell after the first reading 1.7e308 V from a drawn sample on,
so that its series raises after the cells before it were filtered). A model
keeps, per cell, the state last assigned and the services accepted since,
and replays them through ``CellFilter.series``, the batch kernel. After
every rule the slots' floats, the due cell and the service times are the
model's bit for bit, and each rule's result, error and warnings (with the
file they name) are those the model predicts.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from cellsoc import (  # noqa: E402
    CellSocError,
    CellState,
    EkfState,
    InvalidInputError,
    Measurement,
    MultiCellEkf,
    OutOfRangeWarning,
    SchedulingViolationError,
    SchedulingWarning,
    Trace,
    make_filter,
)
from cellsoc.estimator import _soc_column  # noqa: E402
from cellsoc.model import _current_clamp_message, _soc_clamp_message  # noqa: E402
from cellsoc.multicell import _service_count  # noqa: E402
from helpers import held_series  # noqa: E402
from test_multicell import drawn_pack, ticked_packs  # noqa: E402

CURRENTS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-80.0, 80.0]))
VOLTAGES = st.one_of(st.floats(2.5, 4.0), st.just(1.7e308))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def state_bits(ekf):
    return bits(ekf.mean.v_qst), bits(ekf.mean.v_dyn_components), bits(ekf.covariance)


def attempt(fn):
    """fn()'s result or error as (type, message), and every warning, in order, as
    (category, message, file it is attributed to)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(), None
        except CellSocError as exc:
            result, error = None, (type(exc), str(exc))
    return result, error, [(w.category, str(w.message), w.filename) for w in caught]


class EngineMachine(RuleBasedStateMachine):
    @initialize(case=ticked_packs())
    def build(self, case):
        sched, self.cells, self.setups, self.traces = drawn_pack(case)
        self.ids, self.t_slot, self.start = sched.cells, sched.t_slot, case[2]
        self.engine = MultiCellEkf(sched, self.setups, start_time=self.start)
        n = len(self.ids)
        self.revolution = n * self.t_slot
        self.stale_age = 2.0 * self.revolution * (1.0 + 1e-9)
        # The model: per cell the state last assigned, the services (dt, current,
        # voltage) accepted since, and the last service time; the services made.
        self.base = {cid: make_filter(self.setups[cid][1]) for cid in self.ids}
        self.services = {cid: [] for cid in self.ids}
        self.last = {cid: self.start + (j + 1 - n) * self.t_slot for j, cid in enumerate(self.ids)}
        self.served = 0

    # -- the model ---------------------------------------------------------

    def replay(self, cid, base, rows):
        """``CellFilter.series`` over the services ``rows`` from ``base``: (innovations,
        v_qst, final state, counts) or its error, and its warnings."""
        cell, cfg = self.setups[cid]
        dt, current, voltage = np.array(rows, dtype=float).reshape(-1, 3).T
        return attempt(lambda: held_series(base, cell, cfg, voltage, current, dt, current))

    def state(self, cid):
        """The cell's last assigned state, advanced over the services accepted since."""
        if not self.services[cid]:
            return self.base[cid]
        (_, _, final, _), error, _ = self.replay(cid, self.base[cid], self.services[cid])
        assert error is None
        return final

    @property
    def due(self):
        return self.ids[self.served % len(self.ids)]

    def expect_tick(self, cid, now, i, z):
        due = self.due
        if cid != due:
            return None, (SchedulingViolationError,
                          f"measurement for {cid!r} but {due!r} is due"), []
        dt = now - self.last[due]
        for name, value in (("now", now), ("current", i), ("dt", dt), ("measured_v", z)):
            if not math.isfinite(value):
                return None, (InvalidInputError, f"{name} must be finite, got {value}"), []
        if dt <= 0.0:
            return None, (SchedulingViolationError,
                          f"service time {now} does not advance past {self.last[due]}"), []
        caught = []
        if dt > self.stale_age:
            caught.append((SchedulingWarning, f"cell {due!r} serviced after {dt:.6g} s "
                           "(> 2 revolutions); update quality degraded", __file__))
        cell = self.cells[due]
        if not cell.resistor.x_min <= i <= cell.resistor.x_max:
            caught.append((OutOfRangeWarning, _current_clamp_message(cell.resistor), __file__))
        services = [*self.services[due], (dt, i, z)]
        replayed, error, _ = self.replay(due, self.base[due], services)
        if error is not None:
            return None, error, caught
        innovations, v_qst, _, _ = replayed
        if not cell.v_min <= v_qst[-1] <= cell.v_max:
            caught.append((OutOfRangeWarning, _soc_clamp_message(cell), __file__))
        self.services[due] = services
        self.last[due] = now
        self.served += 1
        soc = _soc_column(cell, v_qst[-1:])[0]
        return (due, bits(now), bits(soc), bits(innovations[-1])), None, caught

    def expect_run(self, traces):
        n, t_slot = len(self.ids), self.t_slot
        horizon = min(float(traces[cid].timestamps[-1]) for cid in self.ids)
        assert all(traces[cid].timestamps[-1] == horizon for cid in self.ids)  # no overrun
        services = _service_count(self.start, t_slot, horizon)
        picks, stale = [], 0
        for j, cid in enumerate(self.ids):
            # The rest of the grid: service k at start + (k + 1) * t_slot on cell k mod n.
            k = np.arange(self.served + (j - self.served) % n, services, n)
            now = self.start + (k + 1) * t_slot
            t = traces[cid].timestamps
            idx = np.searchsorted(t, now + 1e-9 * t_slot, side="right") - 1
            # Every cell's service times are checked before any cell is filtered.
            prev = np.concatenate(([self.last[cid]], now[:-1]))
            stuck = np.flatnonzero(now - prev <= 0.0)
            if stuck.size:
                k = stuck[0]
                return None, (SchedulingViolationError, f"service time {float(now[k])} does not "
                              f"advance past {float(prev[k])}"), []
            picks.append((cid, now, idx, prev))
            stale += int(np.count_nonzero(now - t[idx] > self.stale_age))
        caught = []
        if stale:
            caught.append((SchedulingWarning, f"{stale} services used a held sample older than "
                           f"two revolutions ({2.0 * self.revolution:.6g} s); update quality "
                           "degraded", __file__))
        results, accepted = {}, {}
        for cid, now, idx, prev in picks:
            trace = traces[cid]
            rows = list(zip((now - prev).tolist(), trace.current[idx].tolist(),
                            trace.voltage[idx].tolist()))
            # The run's warnings are those of its services alone, from the cell's state.
            replayed, error, cell_warnings = self.replay(cid, self.state(cid), rows)
            caught += cell_warnings
            if error is not None:
                return None, error, caught
            innovations, v_qst, _, counts = replayed
            results[cid] = (bits(now), bits(_soc_column(self.cells[cid], v_qst)), bits(idx),
                            bits(innovations), counts)
            accepted[cid] = rows
        for cid, now, _, _ in picks:
            self.services[cid] += accepted[cid]
            if now.size:
                self.last[cid] = float(now[-1])
        self.served = max(self.served, services)
        return results, None, caught

    # -- rules -------------------------------------------------------------

    def check_tick(self, cid, now, i, z):
        want = self.expect_tick(cid, now, i, z)
        got, error, caught = attempt(lambda: self.engine.tick(now, Measurement(cid, i, z)))
        if got is not None:
            got = (got.cell_id, bits(got.time), bits(got.soc), bits(got.innovation))
        assert (got, error, caught) == want

    def check_run(self, traces):
        want = self.expect_run(traces)
        got, error, caught = attempt(lambda: self.engine.run(traces))
        if got is not None:
            got = {cid: (bits(s.times), bits(s.soc_est), bits(s.sample_index), bits(s.innovations),
                         (s.current_clamps, s.soc_clamps, s.reused_steps))
                   for cid, s in got.items()}
        assert (got, error, caught) == want

    @rule(i=CURRENTS, z=VOLTAGES)
    def tick_the_due_cell_on_the_grid(self, i, z):
        self.check_tick(self.due, self.start + (self.served + 1) * self.t_slot, i, z)

    @rule(late=st.integers(0, 3), i=CURRENTS, z=VOLTAGES)
    def tick_the_due_cell(self, late, i, z):
        due = self.due
        self.check_tick(due, self.last[due] + (1 + late) * self.revolution, i, z)

    @rule(which=st.sampled_from(["current", "voltage", "now"]),
          value=st.sampled_from([math.nan, math.inf, -math.inf]), i=CURRENTS, z=VOLTAGES)
    def tick_a_reading_that_is_not_finite(self, which, value, i, z):
        due = self.due
        now = self.last[due] + self.revolution
        reading = {"current": i, "voltage": z, "now": now, which: value}
        self.check_tick(due, reading["now"], reading["current"], reading["voltage"])

    @rule(offset=st.integers(1, 5), i=CURRENTS, z=VOLTAGES)
    def tick_the_wrong_cell(self, offset, i, z):
        if offset % len(self.ids):
            cid = self.ids[(self.served + offset) % len(self.ids)]
            self.check_tick(cid, self.last[cid] + self.revolution, i, z)

    @rule(back=st.sampled_from([0.0, 0.5, 1.0]), i=CURRENTS, z=VOLTAGES)
    def tick_at_a_time_that_does_not_advance(self, back, i, z):
        due = self.due
        self.check_tick(due, self.last[due] - back * self.revolution, i, z)

    @rule(j=st.integers(0, 5), kind=st.sampled_from(
        ["read", "round trip", "asymmetric", "gain", "another size"]))
    def read_or_assign_a_slot_state(self, j, kind):
        cid = self.ids[j % len(self.ids)]
        slot = self.engine.slots[cid]
        read = slot.ekf
        assert state_bits(read) == state_bits(self.state(cid))
        read.covariance *= 2.0  # a write into a read reaches no slot
        if kind == "read":
            return
        ekf = slot.ekf
        m = ekf.covariance.shape[0]
        if kind == "gain":  # a gain near 2 on v_qst: 1.7e308 V overflows it
            u = np.zeros(m)
            u[:2] = 2.0, -1.0
            ekf = EkfState(ekf.mean, np.outer(u, u) + 0.01 * np.eye(m))
        elif kind in ("asymmetric", "another size"):  # refused at assignment
            if kind == "asymmetric":
                ekf.covariance[m - 1, 0] = np.nextafter(ekf.covariance[0, m - 1], 1.0)
                message = "covariance must be symmetric"
            else:
                ekf = EkfState(CellState.rest(3.3, 1), 1e-4 * np.eye(2))
                message = "state has 1 RC components, parameters define 2"
            _, error, caught = attempt(lambda: setattr(slot, "ekf", ekf))
            assert (error, caught) == ((InvalidInputError, message), [])
            return
        slot.ekf = ekf
        self.base[cid], self.services[cid] = EkfState(ekf.mean.copy(), ekf.covariance.copy()), []

    @rule()
    def run_the_rest_of_the_traces(self):
        self.check_run(dict(self.traces))

    @rule(j=st.integers(1, 5), k=st.integers(0, 200))
    def run_with_a_glitch_after_the_first_cell(self, j, k):
        """A cell after the first reads 1.7e308 V from its sample k on. If the run
        passes its checks, that cell's series raises after the cells before it
        were filtered: the run leaves every slot, service time and the due cell
        as they were, having warned of the clamps of those cells."""
        traces = dict(self.traces)
        cid = self.ids[1 + (j - 1) % (len(self.ids) - 1)]
        trace = traces[cid]
        voltage = trace.voltage.copy()
        voltage[k:] = 1.7e308
        traces[cid] = Trace(trace.timestamps, trace.current, voltage)
        self.check_run(traces)

    @invariant()
    def the_engine_is_the_model(self):
        assert self.engine.due_cell == self.due
        for cid in self.ids:
            slot = self.engine.slots[cid]
            assert bits(self.engine.served_at[cid]) == bits(self.last[cid])
            assert state_bits(slot.ekf) == state_bits(self.state(cid))


EngineMachine.TestCase.settings = settings(max_examples=50, stateful_step_count=40,
                                           deadline=None, derandomize=True)
test_the_engine_is_its_model = EngineMachine.TestCase
