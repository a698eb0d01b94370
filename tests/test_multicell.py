import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cellsoc import (
    BudgetExceededError,
    CellState,
    ConfigurationError,
    EkfConfig,
    EkfState,
    InvalidInputError,
    InvalidParametersError,
    Measurement,
    MultiCellEkf,
    NumericalFailureError,
    OutOfRangeWarning,
    SchedulerConfig,
    SchedulingViolationError,
    SchedulingWarning,
    Trace,
    correct,
    coulomb_count,
    max_cells,
    predict,
    simulate,
    vqst_from_soc,
)
from cellsoc.model import _current_clamp_message, _soc_clamp_message
from cellsoc.multicell import _service_count
from helpers import make_cell, oracle_service_soc, random_cell


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestMaxCells:
    def test_paper_operating_point(self):
        assert max_cells(2.0, 0.01) == 25

    def test_trivial_product(self):
        assert max_cells(0.5, 1.0) == 1

    def test_hand_evaluated_floor(self):
        assert max_cells(2.0, 0.021) == 11
        # 1 / (2 * 0.1 * 0.1) rounds to 49.99999999999999; the nudge keeps 50.
        assert max_cells(0.1, 0.1) == 50

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            max_cells(0.0, 0.01)
        with pytest.raises(InvalidInputError):
            max_cells(2.0, -1.0)
        # 2 * f_max * t_slot is subnormal, and its reciprocal overflows.
        with pytest.raises(InvalidInputError, match="is not finite"):
            max_cells(1e-320, 0.01)


class TestSchedulerConfig:
    def test_budget_enforced_with_computation_in_message(self):
        cells = tuple(f"c{i:02d}" for i in range(26))
        with pytest.raises(BudgetExceededError, match=r"floor\(1 / \(2 \* 2.0 Hz \* 0.01 s\)\) = 25"):
            SchedulerConfig(t_slot=0.01, cells=cells, f_max=2.0)

    def test_exactly_at_budget_allowed(self):
        cells = tuple(f"c{i:02d}" for i in range(25))
        cfg = SchedulerConfig(t_slot=0.01, cells=cells, f_max=2.0)
        assert len(cfg.cells) == 25

    def test_duplicate_ids_rejected(self):
        with pytest.raises(Exception):
            SchedulerConfig(t_slot=0.01, cells=("a", "a"), f_max=2.0)

    @pytest.mark.parametrize("bad", [7, None, "", "a,b", "a/b", 'a"b', "a\\b", "a\nb"])
    def test_ids_the_soc_writer_refuses_are_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="cell id must be a non-empty printable"):
            SchedulerConfig(t_slot=0.5, cells=(bad,), f_max=0.5)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(t_slot=0.25, cells=("ok", bad), f_max=0.5)


# Budgets up to 1,000 cells: below about 2,000 the rounding of 1 / (2 f t)
# stays under max_cells' 1e-12 nudge, so one more cell never fits exactly.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(0.05, 50.0), st.floats(0.01, 10.0))
@example(2.0, 0.01)
@example(0.5, 1.0)
@example(2.0, 0.021)
@example(0.1, 0.1)  # 1 / (2 * 0.1 * 0.1) rounds to 49.99999999999999
def test_the_budget_is_the_most_cells_one_revolution_holds(f_max, t_slot):
    """``max_cells`` cells fit one revolution within 1 / (2 f_max), to 1e-12
    relative, and one more cell does not; ``SchedulerConfig`` accepts exactly
    ``max_cells`` cells and refuses one more. Compared in exact rationals."""
    n = max_cells(f_max, t_slot)
    half_period = 1 / (2 * Fraction(f_max))
    assert n * Fraction(t_slot) <= half_period * (1 + Fraction(1e-12))
    assert (n + 1) * Fraction(t_slot) > half_period
    ids = tuple(f"c{i}" for i in range(n + 1))
    if n:  # a schedule needs one cell
        assert len(SchedulerConfig(t_slot=t_slot, cells=ids[:n], f_max=f_max).cells) == n
    with pytest.raises(BudgetExceededError):
        SchedulerConfig(t_slot=t_slot, cells=ids, f_max=f_max)


def ticked_pair():
    """Cells a and b, ticked five times every 0.25 s from 0 s: b is due, at 1.5 s."""
    cell = make_cell()
    cfg = EkfConfig.default(cell, initial_soc=0.7)
    sched = SchedulerConfig(t_slot=0.25, cells=("a", "b"), f_max=1.0)
    engine = MultiCellEkf(sched, {"a": (cell, cfg), "b": (cell, cfg)})
    for k in range(5):
        engine.tick((k + 1) * 0.25, Measurement(engine.due_cell, -1.0, 3.3))
    return engine


def snapshot(engine):
    """The ring position and, bit for bit, each slot's service time and filter."""
    return engine.due_cell, [
        (engine.served_at[cid], bits(slot.ekf.mean.v_qst).tolist(),
         bits(slot.ekf.mean.v_dyn_components).tolist(), bits(slot.ekf.covariance).tolist())
        for cid, slot in engine.slots.items()]


def held_reference(cell, trace, series):
    """The coulomb-counting reference from a full cell at the samples its
    services held."""
    return coulomb_count(trace, cell.nominal_capacity_c_n, 1.0)[series.sample_index]


def service_grid_trace(cell, n_services, period, first_time, current_fn, initial_soc=1.0):
    """Simulate a cell on its own service-time grid."""
    t = first_time + period * np.arange(n_services)
    current = current_fn(t)
    initial = CellState.rest(vqst_from_soc(cell, initial_soc), cell.n_rc)
    return simulate(cell, Trace(t, current), initial).trace


class TestTick:
    def test_single_cell_equals_plain_ekf(self):
        cell = make_cell()
        cfg = EkfConfig.default(cell, initial_soc=0.8)
        sched = SchedulerConfig(t_slot=1.0, cells=("only",), f_max=0.4)
        trace = service_grid_trace(cell, 600, 1.0, 1.0, lambda t: -2.0 * np.ones_like(t))
        engine = MultiCellEkf(sched, {"only": (cell, cfg)}, start_time=0.0)

        reference = oracle_service_soc(cell, cfg, trace.current, trace.voltage, 1.0)
        for k in range(len(trace)):
            now = float(trace.timestamps[k])
            i_k = float(trace.current[k])
            v_k = float(trace.voltage[k])
            result = engine.tick(now, Measurement("only", i_k, v_k))
            assert result.soc == pytest.approx(reference[k], abs=1e-12)

    def test_out_of_order_rejected(self):
        cell = make_cell()
        cfg = EkfConfig.default(cell)
        sched = SchedulerConfig(t_slot=0.125, cells=("a", "b"), f_max=1.0)
        engine = MultiCellEkf(sched, {"a": (cell, cfg), "b": (cell, cfg)})
        with pytest.raises(SchedulingViolationError):
            engine.tick(0.125, Measurement("b", 0.0, 3.3))

    def test_time_must_advance(self):
        cell = make_cell()
        cfg = EkfConfig.default(cell)
        sched = SchedulerConfig(t_slot=0.125, cells=("a",), f_max=1.0)
        engine = MultiCellEkf(sched, {"a": (cell, cfg)})
        engine.tick(0.125, Measurement("a", 0.0, 3.3))
        with pytest.raises(SchedulingViolationError):
            engine.tick(0.125, Measurement("a", 0.0, 3.3))

    def test_stale_measurement_warns_but_updates(self):
        cell = make_cell()
        cfg = EkfConfig.default(cell)
        sched = SchedulerConfig(t_slot=0.125, cells=("a",), f_max=1.0)
        engine = MultiCellEkf(sched, {"a": (cell, cfg)})
        with pytest.warns(SchedulingWarning):
            result = engine.tick(10.0, Measurement("a", 0.0, 3.3))
        assert np.isfinite(result.soc)

    @pytest.mark.parametrize("field,value,message", [
        ("current", np.nan, "current must be finite"),
        ("current", -np.inf, "current must be finite"),
        ("voltage", np.nan, "measured_v must be finite"),
        ("voltage", np.inf, "measured_v must be finite"),
        ("now", np.nan, "now must be finite, got nan"),
        ("now", np.inf, "now must be finite, got inf"),
        ("now", -np.inf, "now must be finite, got -inf"),
    ])
    def test_non_finite_inputs_leave_the_engine_unchanged(self, field, value, message):
        engine = ticked_pair()
        before = snapshot(engine)
        reading = {"current": -1.0, "voltage": 3.3, "now": 1.5, field: value}
        with pytest.raises(InvalidInputError, match=message):
            engine.tick(reading["now"], Measurement("b", reading["current"], reading["voltage"]))
        assert snapshot(engine) == before

    def test_an_elapsed_time_that_overflows_is_named_dt(self):
        cell = make_cell()
        engine = MultiCellEkf(SchedulerConfig(t_slot=0.5, cells=("a",), f_max=1.0),
                              {"a": (cell, EkfConfig.default(cell))}, start_time=-1.7e308)
        before = snapshot(engine)
        with pytest.raises(InvalidInputError, match="dt must be finite, got inf"):
            engine.tick(1.7e308, Measurement("a", -1.0, 3.3))
        assert snapshot(engine) == before

    @pytest.mark.parametrize("value", [1e-9, np.nan])
    def test_asymmetric_covariance_leaves_the_engine_unchanged(self, value):
        """An asymmetric P is refused when it is assigned to a slot, before the
        slot, its service time or the ring change; a NaN is refused as not
        finite."""
        engine = ticked_pair()
        slot = engine.slots["b"]
        covariance = slot.ekf.covariance
        covariance[2, 1] = value
        before = snapshot(engine)
        message = "symmetric" if math.isfinite(value) else "finite"
        with pytest.raises(InvalidInputError, match=f"covariance must be {message}"):
            slot.ekf = EkfState(slot.ekf.mean, covariance)
        assert snapshot(engine) == before

    def test_writing_into_a_read_slot_state_changes_no_later_tick(self):
        """``slot.ekf`` is built on read: a write into what was read does not
        reach the slot, so the next tick is the one an untouched engine makes."""
        engine, twin = ticked_pair(), ticked_pair()
        ekf = engine.slots["b"].ekf
        ekf.mean.v_qst += 0.1
        ekf.mean.v_dyn_components[:] = 0.5
        ekf.covariance[:] = 7.0
        assert snapshot(engine) == snapshot(twin)
        got, want = (e.tick(1.5, Measurement("b", -1.0, 3.3)) for e in (engine, twin))
        assert (bits(got.soc), bits(got.innovation)) == (bits(want.soc), bits(want.innovation))
        assert snapshot(engine) == snapshot(twin)

    def test_assigning_a_read_slot_state_round_trips_bit_for_bit(self):
        """``slot.ekf = slot.ekf`` stores the bits it read, a -0.0 included, and
        an assignment stores floats: a later write into the assigned state
        does not reach the slot."""
        engine = ticked_pair()
        slot = engine.slots["a"]
        covariance = slot.ekf.covariance
        covariance[0, 1] = covariance[1, 0] = -0.0
        slot.ekf = EkfState(slot.ekf.mean, covariance)
        before = snapshot(engine)
        for s in engine.slots.values():
            s.ekf = s.ekf
        assert snapshot(engine) == before
        assert bits(engine.slots["a"].ekf.covariance[0, 1]) == bits(-0.0)
        covariance[:] = 7.0
        assert snapshot(engine) == before

    def test_a_slot_state_of_another_size_is_refused_on_assignment(self):
        engine = ticked_pair()  # two RC groups
        before = snapshot(engine)
        cfg = EkfConfig.default(make_cell(rc=((0.012, 20.0),)))
        with pytest.raises(InvalidInputError, match="state has 1 RC components"):
            engine.slots["b"].ekf = EkfState(cfg.initial_state, cfg.initial_covariance_p0)
        assert snapshot(engine) == before

    def test_warnings_name_the_caller_of_tick(self):
        """Driven at 80 A (past the resistor curve's 50 A) and read at 10 V."""
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.5, cells=("a",), f_max=1.0)
        engine = MultiCellEkf(sched, {"a": (cell, EkfConfig.default(cell))})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k in range(5):
                engine.tick((k + 1) * 0.5, Measurement("a", 80.0, 10.0))
        out_of_range = [w for w in caught if w.category is OutOfRangeWarning]
        assert ({str(w.message) for w in out_of_range}
                == {_current_clamp_message(cell.resistor), _soc_clamp_message(cell)})
        assert {w.filename for w in out_of_range} == {__file__}

    def test_a_tick_that_raises_warns_and_leaves_the_engine_unchanged(self):
        """Driven at 80 A and read at 1.7e308 V with a gain near 2 on v_qst, the
        correction overflows v_qst after the current clamp was counted: the
        clamp's warning names the caller of tick, and nothing changes."""
        cell = make_cell()
        base = EkfConfig.default(cell)
        u = np.array([2.0, -1.0, 0.0])
        cfg = EkfConfig(base.process_noise_q, base.measurement_noise_r,
                        np.outer(u, u) + 0.01 * np.eye(3), base.initial_state)
        sched = SchedulerConfig(t_slot=0.5, cells=("a",), f_max=1.0)
        engine = MultiCellEkf(sched, {"a": (cell, cfg)})
        before = snapshot(engine)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError, match="cell state must be finite"):
                engine.tick(0.5, Measurement("a", 80.0, 1.7e308))
        assert [(str(w.message), w.filename) for w in caught] == [
            (_current_clamp_message(cell.resistor), __file__)]
        assert snapshot(engine) == before

    def test_ticks_predict_and_correct_call_neither_np_interp_nor_np_clip(self, monkeypatch):
        """Each runs one sample on Python floats, where numpy's per-call
        dispatch costs more than the lookup or the clamp it would do."""
        cell = make_cell()
        cfg = EkfConfig.default(cell, initial_soc=0.7)
        ids = ("a", "b", "c")
        engine = MultiCellEkf(SchedulerConfig(t_slot=0.25, cells=ids, f_max=0.5),
                              {cid: (cell, cfg) for cid in ids})
        calls = Counter()
        for name in ("interp", "clip"):
            def spy(*args, _real=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, spy)
        for k in range(2 * len(ids)):
            engine.tick((k + 1) * 0.25, Measurement(engine.due_cell, -1.0 - k, 3.3))
        correct(predict(engine.slots["a"].ekf, cell, -2.0, 1.0, cfg), cell, 3.3, -2.0, cfg)
        assert calls == Counter()

    def test_a_slot_step_forms_its_decays_again_when_dt_changes(self):
        """A slot's step keeps the decays and Q*dt of the last dt it saw. One
        cell serviced every revolution (1 s), once 2.5 revolutions late, then
        on time again; twice a tick at 1e308 s, where Q*dt overflows, which
        raises and leaves the engine as it was; then on time again. Every tick
        gives the result or error, and leaves the slot, of a fresh engine
        handed the slot's state and service time before it, whose step has
        seen no dt."""
        cell = make_cell()
        base = EkfConfig.default(cell, initial_soc=0.7)
        # Q*dt is finite at any service below 1.7e307 s.
        cfg = EkfConfig(10.0 * np.eye(3), base.measurement_noise_r, base.initial_covariance_p0,
                        base.initial_state)
        sched = SchedulerConfig(t_slot=1.0, cells=("a",), f_max=0.5)
        engine = MultiCellEkf(sched, {"a": (cell, cfg)})
        times = [1.0, 2.0, 3.0, 5.5, 6.5, 7.5, 1e308, 1e308, 8.5, 9.5, 10.5]

        def tick(engine, now, measurement):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    out = engine.tick(now, measurement)
                except NumericalFailureError as exc:
                    return type(exc), str(exc)
            return bits([out.time, out.soc, out.innovation]).tolist()

        outcomes = []
        for k, now in enumerate(times):
            fresh = MultiCellEkf(sched, {"a": (cell, cfg)})
            fresh.slots["a"].ekf = engine.slots["a"].ekf
            fresh.served_at["a"] = engine.served_at["a"]
            measurement = Measurement("a", -1.0 - 0.5 * (k % 3), 3.3 + 0.01 * k)
            outcomes.append(tick(engine, now, measurement))
            assert outcomes[-1] == tick(fresh, now, measurement)
            assert snapshot(engine) == snapshot(fresh)
        assert outcomes[6] == outcomes[7] == (
            NumericalFailureError, "process noise Q * dt is not finite (dt = 1e+308)")
        assert all(isinstance(out, list) for out in outcomes[:6] + outcomes[8:])

    def test_measurements_and_results_hold_no_instance_dict(self):
        engine = ticked_pair()
        measurement = Measurement(engine.due_cell, -1.0, 3.3)
        for record in (measurement, engine.tick(1.5, measurement)):
            assert not hasattr(record, "__dict__")

    def test_ticking_a_schedule_is_run_bit_for_bit(self):
        """Every SoC, innovation and final slot, across a discharge and a rest
        long enough for run's kernel to reuse a settled covariance step (P
        settles after about 2,600 services at rest, so each cell reuses the
        step for its last few hundred)."""
        cell = make_cell(rc=((0.012, 20.0), (0.02, 100.0)))
        ids = ("a", "b")
        sched = SchedulerConfig(t_slot=0.5, cells=ids, f_max=0.5)
        setups = {cid: (cell, EkfConfig.default(cell, initial_soc=0.6 + 0.1 * j))
                  for j, cid in enumerate(ids)}
        traces = {cid: service_grid_trace(cell, 3200, 1.0, 0.0,
                                          lambda t, amp=-1.0 - j: np.where(t < 300.0, amp, 0.0))
                  for j, cid in enumerate(ids)}
        batch = MultiCellEkf(sched, setups)
        series = batch.run(traces)

        online = MultiCellEkf(sched, setups)
        soc = {cid: np.empty(series[cid].times.size) for cid in ids}
        innovations = {cid: np.empty(series[cid].times.size) for cid in ids}
        for k in range(sum(s.times.size for s in series.values())):
            cid, n = ids[k % 2], k // 2
            now = float(series[cid].times[n])
            trace = traces[cid]
            idx = int(np.searchsorted(trace.timestamps, now + 1e-9 * 0.5, side="right")) - 1
            out = online.tick(now, Measurement(cid, float(trace.current[idx]),
                                               float(trace.voltage[idx])))
            soc[cid][n], innovations[cid][n] = out.soc, out.innovation

        assert online.due_cell == batch.due_cell
        for cid in ids:
            assert np.array_equal(bits(soc[cid]), bits(series[cid].soc_est))
            assert np.array_equal(bits(innovations[cid]), bits(series[cid].innovations))
            got, want = online.slots[cid], batch.slots[cid]
            assert online.served_at[cid] == batch.served_at[cid]
            assert np.array_equal(bits(got.ekf.mean.v_qst), bits(want.ekf.mean.v_qst))
            assert np.array_equal(bits(got.ekf.mean.v_dyn_components),
                                  bits(want.ekf.mean.v_dyn_components))
            assert np.array_equal(bits(got.ekf.covariance), bits(want.ekf.covariance))

    def test_identical_cells_identical_slots_bit_exact(self):
        # Exactly representable t_slot makes every cell's arithmetic identical.
        cell = make_cell()
        n = 8
        ids = tuple(f"c{i}" for i in range(n))
        sched = SchedulerConfig(t_slot=0.125, cells=ids, f_max=0.5)
        cfg = EkfConfig.default(cell, initial_soc=0.8)
        engine = MultiCellEkf(sched, {i: (cell, cfg) for i in ids})
        rng = np.random.default_rng(0)
        for rev in range(50):
            value_i = float(rng.uniform(-2, 2))
            value_v = float(3.25 + rng.uniform(-0.01, 0.01))
            for j, cid in enumerate(ids):
                now = (rev * n + j + 1) * 0.125
                engine.tick(now, Measurement(cid, value_i, value_v))
            states = [engine.slots[c].ekf for c in ids]
            for s in states[1:]:
                assert s.mean.v_qst == states[0].mean.v_qst
                assert np.array_equal(s.mean.v_dyn_components, states[0].mean.v_dyn_components)
                assert np.array_equal(s.covariance, states[0].covariance)

    def test_cross_cell_isolation_bit_exact(self):
        cell = make_cell()
        ids = ("a", "b", "c")
        sched = SchedulerConfig(t_slot=0.25, cells=ids, f_max=0.5)
        cfg = EkfConfig.default(cell, initial_soc=0.9)

        def run(perturb_b):
            engine = MultiCellEkf(sched, {i: (cell, cfg) for i in ids})
            for rev in range(30):
                for j, cid in enumerate(ids):
                    now = (rev * 3 + j + 1) * 0.25
                    v = 3.3 + (0.05 if (perturb_b and cid == "b") else 0.0)
                    engine.tick(now, Measurement(cid, 0.5, v))
            return engine

        base = run(False)
        pert = run(True)
        for cid in ("a", "c"):
            assert pert.slots[cid].ekf.mean.v_qst == base.slots[cid].ekf.mean.v_qst
            assert np.array_equal(pert.slots[cid].ekf.covariance, base.slots[cid].ekf.covariance)
        assert pert.slots["b"].ekf.mean.v_qst != base.slots["b"].ekf.mean.v_qst

    def test_fairness_each_cell_once_per_revolution(self):
        cell = make_cell()
        ids = tuple(f"c{i}" for i in range(5))
        sched = SchedulerConfig(t_slot=0.2, cells=ids, f_max=0.5)
        cfg = EkfConfig.default(cell)
        engine = MultiCellEkf(sched, {i: (cell, cfg) for i in ids})
        serviced = []
        for k in range(25):
            cid = engine.due_cell
            engine.tick((k + 1) * 0.2, Measurement(cid, 0.0, 3.3))
            serviced.append(cid)
        for w in range(0, 25, 5):
            assert sorted(serviced[w:w + 5]) == sorted(ids)


class TestRunEquivalence:
    def equivalence_case(self, n_cells, horizon_s=600.0, seed=0):
        """Multi-cell run vs independent per-cell filters at period N*t_slot."""
        rng = np.random.default_rng(seed)
        cells = {f"c{i:02d}": random_cell(rng) for i in range(n_cells)}
        ids = tuple(cells)
        t_slot = 1.0 / n_cells
        sched = SchedulerConfig(t_slot=t_slot, cells=ids, f_max=0.5)
        cfgs = {cid: EkfConfig.default(cells[cid], initial_soc=0.8) for cid in ids}

        traces = {}
        for j, cid in enumerate(ids):
            first = (j + 1) * t_slot
            n_services = int((horizon_s - first) // 1.0) + 1
            traces[cid] = service_grid_trace(
                cells[cid], n_services, 1.0, first,
                lambda t: 2.0 * np.sin(2 * np.pi * t / 300.0),
            )

        engine = MultiCellEkf(sched, {cid: (cells[cid], cfgs[cid]) for cid in ids})
        series = engine.run(traces)

        worst = 0.0
        for cid in ids:
            n = series[cid].times.size
            trace = traces[cid]
            soc_ref = oracle_service_soc(cells[cid], cfgs[cid], trace.current[:n],
                                         trace.voltage[:n], n_cells * t_slot)
            worst = max(worst, float(np.max(np.abs(series[cid].soc_est - soc_ref))))
        return worst

    def test_equivalence_small(self):
        assert self.equivalence_case(3) <= 1e-12

    def test_run_refuses_budget_violation(self):
        with pytest.raises(BudgetExceededError, match="floor"):
            SchedulerConfig(t_slot=0.01, cells=tuple(f"c{i}" for i in range(26)), f_max=2.0)

    def test_two_cells_different_parameters(self):
        rng = np.random.default_rng(3)
        cell_a, cell_b = make_cell(), random_cell(rng)
        sched = SchedulerConfig(t_slot=0.5, cells=("a", "b"), f_max=0.5)
        setups = {
            "a": (cell_a, EkfConfig.default(cell_a, initial_soc=0.8)),
            "b": (cell_b, EkfConfig.default(cell_b, initial_soc=0.8)),
        }
        traces = {
            "a": service_grid_trace(cell_a, 300, 1.0, 0.5, lambda t: -np.ones_like(t)),
            "b": service_grid_trace(cell_b, 300, 1.0, 1.0, lambda t: -np.ones_like(t)),
        }
        engine = MultiCellEkf(sched, setups)
        series = engine.run(traces)
        n = min(series["a"].soc_est.size, series["b"].soc_est.size)
        assert not np.allclose(series["a"].soc_est[:n], series["b"].soc_est[:n])
        # per-slot parameters: each filter tracks its own cell's truth
        for cid, (cell, _) in setups.items():
            ref = held_reference(cell, traces[cid], series[cid])
            assert abs(series[cid].soc_est[-1] - ref[-1]) < 0.01

    def test_eighteen_cell_pack_converges_to_reference(self):
        # Pack test in miniature: 18 cells, all fully charged, filters seeded
        # at 80%; every estimate must engage the coulomb-counting reference.
        rng = np.random.default_rng(18)
        ids = tuple(f"cell{i:02d}" for i in range(18))
        cells = {cid: random_cell(rng) for cid in ids}
        period = 2.0
        t_slot = period / 18.0
        sched = SchedulerConfig(t_slot=t_slot, cells=ids, f_max=0.5 / period)
        setups = {cid: (cells[cid], EkfConfig.default(cells[cid], initial_soc=0.8))
                  for cid in ids}
        traces = {}
        for j, cid in enumerate(ids):
            first = (j + 1) * t_slot
            n_services = 900  # half an hour at one service per 2 s
            traces[cid] = service_grid_trace(
                cells[cid], n_services, period, first,
                lambda t: np.full(t.size, -2.0), initial_soc=1.0,
            )
        engine = MultiCellEkf(sched, setups)
        series = engine.run(traces)
        for cid in ids:
            s = series[cid]
            # c_n equals delta_q for these cells, so the reference is exact.
            ref = held_reference(cells[cid], traces[cid], s)
            assert abs(s.soc_est[-1] - ref[-1]) < 0.02
            assert np.max(np.abs(s.soc_est[-100:] - ref[-100:])) < 0.02

    def test_run_leaves_engine_as_ticking_would(self):
        rng = np.random.default_rng(21)
        ids = ("a", "b", "c")
        cells = {cid: random_cell(rng) for cid in ids}
        sched = SchedulerConfig(t_slot=0.3, cells=ids, f_max=0.5)
        setups = {cid: (cells[cid], EkfConfig.default(cells[cid], initial_soc=0.7)) for cid in ids}
        # Sampled every 0.5 s but serviced every 0.9 s: the zero-order hold
        # skips and repeats samples. 335 services leave the ring at "c".
        traces = {
            cid: service_grid_trace(cells[cid], 202, 0.5, 0.0,
                                    lambda t: 3.0 * np.sin(2 * np.pi * t / 40.0), initial_soc=0.6)
            for cid in ids
        }
        batch = MultiCellEkf(sched, setups)
        batch.run(traces)

        online = MultiCellEkf(sched, setups)
        k = 0
        while (k + 1) * 0.3 <= 100.5:
            now = (k + 1) * 0.3
            cid = ids[k % 3]
            trace = traces[cid]
            idx = int(np.searchsorted(trace.timestamps, now + 1e-9 * 0.3, side="right")) - 1
            online.tick(now, Measurement(cid, float(trace.current[idx]), float(trace.voltage[idx])))
            k += 1

        def assert_same_slots():
            assert batch.due_cell == online.due_cell
            for cid in ids:
                got, want = batch.slots[cid], online.slots[cid]
                assert batch.served_at[cid] == online.served_at[cid]
                assert abs(got.ekf.mean.v_qst - want.ekf.mean.v_qst) <= 1e-12
                assert np.max(np.abs(got.ekf.mean.v_dyn_components
                                     - want.ekf.mean.v_dyn_components)) <= 1e-12
                assert np.max(np.abs(got.ekf.covariance - want.ekf.covariance)) <= 1e-12

        assert k == 335 and online.due_cell == "c"
        assert_same_slots()
        m = Measurement("c", -1.5, 3.3)
        now = (k + 1) * 0.3
        after_batch, after_online = batch.tick(now, m), online.tick(now, m)
        assert abs(after_batch.soc - after_online.soc) <= 1e-12
        assert abs(after_batch.innovation - after_online.innovation) <= 1e-12
        assert_same_slots()

    def test_run_continues_the_grid_after_ticks(self):
        """Cells a and b ticked at 0.25 s and 0.5 s: run serves a from 0.75 s
        and b from 1.0 s, and leaves the engine as ticking the whole grid does."""
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.25, cells=("a", "b"), f_max=1.0)
        setups = {cid: (cell, EkfConfig.default(cell, initial_soc=0.7)) for cid in "ab"}
        trace = service_grid_trace(cell, 40, 0.25, 0.0, lambda t: -np.ones_like(t))
        traces = {"a": trace, "b": trace}
        resumed, whole = MultiCellEkf(sched, setups), MultiCellEkf(sched, setups)
        for k in range(2):
            grid_tick(resumed, traces, k)
        series = resumed.run(traces)
        for k in range(_service_count(0.0, 0.25, 9.75)):
            grid_tick(whole, traces, k)
        assert (series["a"].times[0], series["b"].times[0]) == (0.75, 1.0)
        assert snapshot(resumed) == snapshot(whole)


class TestRunWarnings:
    def scheduling_warnings(self, engine, traces):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.run(traces)
        return [str(w.message) for w in caught if w.category is SchedulingWarning]

    def test_held_samples_older_than_two_revolutions_are_counted(self):
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.5, cells=("a",), f_max=0.5)  # revolution 0.5 s
        engine = MultiCellEkf(sched, {"a": (cell, EkfConfig.default(cell))})
        dense = service_grid_trace(cell, 31, 0.5, 0.0, lambda t: -np.ones_like(t))
        assert self.scheduling_warnings(engine, {"a": dense}) == []

        # A 5 s gap after t = 5 s: services at 6.5, 7.0, ..., 9.5 s hold a
        # sample more than 1 s old (6.0 s holds it exactly 1 s).
        t = np.concatenate((np.arange(0.0, 5.25, 0.5), np.arange(10.0, 15.25, 0.5)))
        gappy = simulate(cell, Trace(t, -np.ones_like(t)),
                         CellState.rest(vqst_from_soc(cell, 1.0), cell.n_rc)).trace
        engine = MultiCellEkf(sched, {"a": (cell, EkfConfig.default(cell))})
        (message,) = self.scheduling_warnings(engine, {"a": gappy})
        assert message.startswith("7 services used a held sample older than two revolutions")

    def test_tails_past_the_horizon_are_named(self):
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.25, cells=("a", "b", "c"), f_max=0.5)  # 0.75 s
        setups = {cid: (cell, EkfConfig.default(cell)) for cid in sched.cells}

        def traces(ends):
            return {cid: service_grid_trace(cell, int(end / 0.25) + 1, 0.25, 0.0,
                                            lambda t: -np.ones_like(t))
                    for cid, end in zip(sched.cells, ends)}

        # Within one revolution of the shortest trace: nothing worth a word.
        assert self.scheduling_warnings(MultiCellEkf(sched, setups), traces((20, 20.5, 20))) == []
        (message,) = self.scheduling_warnings(MultiCellEkf(sched, setups), traces((20, 30, 25)))
        assert message.startswith("traces of 'b', 'c' run more than one revolution")

    def test_per_sample_warnings_name_the_caller_of_run(self):
        """Two cells of two RC groups each, driven at 80 A (past the resistor
        curve's 50 A) and read at 10 V (v_qst leaves the window)."""
        ids = ("a", "b")
        cells = {cid: random_cell(np.random.default_rng(j)) for j, cid in enumerate(ids)}
        sched = SchedulerConfig(t_slot=0.25, cells=ids, f_max=1.0)
        engine = MultiCellEkf(sched, {cid: (cells[cid], EkfConfig.default(cells[cid]))
                                      for cid in ids})
        t = np.arange(0.0, 20.0, 0.5)
        traces = {cid: Trace(t, np.full(t.size, 80.0), np.full(t.size, 10.0)) for cid in ids}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.run(traces)
        out_of_range = [w for w in caught if w.category is OutOfRangeWarning]
        want = set()
        for cell in cells.values():
            want |= {_current_clamp_message(cell.resistor), _soc_clamp_message(cell)}
        assert {str(w.message) for w in out_of_range} == want
        assert {w.filename for w in out_of_range} == {__file__}

    def test_cell_series_counts_sum_to_the_clamps_of_run(self):
        """Two cells driven past the resistor curve now and then, and read at 10 V
        for a while. Ticking the same schedule warns once per clamped service;
        run warns once per kind and cell, and each cell's counts are its ticks'
        warnings."""
        ids = ("a", "b")
        cells = {cid: random_cell(np.random.default_rng(7 + j)) for j, cid in enumerate(ids)}
        setups = {cid: (cells[cid], EkfConfig.default(cells[cid])) for cid in ids}
        sched = SchedulerConfig(t_slot=0.25, cells=ids, f_max=1.0)
        t = np.arange(0.0, 30.0, 0.5)
        traces = {cid: Trace(t, np.where(t % (3 + j) < 1, 80.0, -1.0),
                             np.where(t < 10 * (j + 1), 10.0, 3.3))
                  for j, cid in enumerate(ids)}

        def kinds(caught):
            return Counter(str(w.message) for w in caught if w.category is OutOfRangeWarning)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = MultiCellEkf(sched, setups).run(traces)
        online = MultiCellEkf(sched, setups)
        ticked = {cid: Counter() for cid in ids}
        for k in range(sum(s.times.size for s in series.values())):
            cid, n = ids[k % 2], k // 2
            now = float(series[cid].times[n])
            idx = int(np.searchsorted(t, now + 1e-9 * 0.25, side="right")) - 1
            with warnings.catch_warnings(record=True) as one:
                warnings.simplefilter("always")
                online.tick(now, Measurement(cid, float(traces[cid].current[idx]),
                                             float(traces[cid].voltage[idx])))
            ticked[cid] += kinds(one)

        for cid in ids:
            s = series[cid]
            assert s.current_clamps > 0 and s.soc_clamps > 0
            assert ticked[cid] == Counter({_current_clamp_message(cells[cid].resistor):
                                           s.current_clamps,
                                           _soc_clamp_message(cells[cid]): s.soc_clamps})
        assert kinds(caught) == sum((Counter(set(c)) for c in ticked.values()), Counter())
        assert sum(s.current_clamps + s.soc_clamps for s in series.values()) == sum(
            sum(c.values()) for c in ticked.values())


class TestRefusals:
    """Each refusal raises before the engine changes."""

    def pair_traces(self):
        cell = make_cell()
        trace = service_grid_trace(cell, 40, 0.25, 0.0, lambda t: -np.ones_like(t))
        return {"a": trace, "b": trace}

    def test_nan_f_max_is_refused(self):
        with pytest.raises(InvalidParametersError, match="f_max must be positive, got nan"):
            SchedulerConfig(t_slot=0.01, cells=("a",), f_max=math.nan)

    def test_a_cell_without_a_setup_is_refused(self):
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.25, cells=("a", "b"), f_max=1.0)
        with pytest.raises(InvalidInputError, match="no setup provided for cell 'b'"):
            MultiCellEkf(sched, {"a": (cell, EkfConfig.default(cell))})

    def test_run_refuses_a_cell_without_a_trace(self):
        engine = ticked_pair()
        before = snapshot(engine)
        with pytest.raises(InvalidInputError, match="no trace provided for cell 'b'"):
            engine.run({"a": self.pair_traces()["a"]})
        assert snapshot(engine) == before

    def test_a_run_that_fails_on_its_last_cell_leaves_the_engine_unchanged(self):
        """Cell b reads 1.7e308 V from its tenth sample on, so its series raises
        after cell a's was filtered; a's state is restored with the rest."""
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.25, cells=("a", "b"), f_max=1.0)
        engine = MultiCellEkf(sched, {cid: (cell, EkfConfig.default(cell, initial_soc=0.7))
                                      for cid in sched.cells})
        traces = self.pair_traces()
        glitched = traces["b"].voltage.copy()
        glitched[10:] = 1.7e308
        traces["b"] = Trace(traces["b"].timestamps, traces["b"].current, glitched)
        before = snapshot(engine)
        with pytest.raises(InvalidInputError, match="cell state must be finite"):
            engine.run(traces)
        assert snapshot(engine) == before

    def test_run_refuses_service_instants_that_stop_advancing(self):
        # At 1e17 s one ulp is 16 s, so start + k * 0.01 rounds back to the start.
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.01, cells=("a",), f_max=1.0)
        engine = MultiCellEkf(sched, {"a": (cell, EkfConfig.default(cell))}, start_time=1e17)
        before = snapshot(engine)
        trace = Trace(1e17 + 16.0 * np.arange(-1.0, 3.0), -np.ones(4), np.full(4, 3.3))
        with pytest.raises(SchedulingViolationError,
                           match=r"service time 1e\+17 does not advance past 1e\+17"):
            engine.run({"a": trace})
        assert snapshot(engine) == before


def brute_service_count(start, t_slot, horizon):
    k = 0
    while start + (k + 1) * t_slot <= horizon:
        k += 1
    return k


class TestServiceCount:
    def test_the_quotient_is_settled_by_the_service_times(self):
        # (horizon - start) / t_slot gives 764 here, yet the 765th service
        # time, start + 765 * 0.01, is the horizon itself.
        start = 260.4923103919594
        horizon = start + 765 * 0.01
        assert int((horizon - start) / 0.01) == 764
        assert _service_count(start, 0.01, horizon) == 765 == brute_service_count(
            start, 0.01, horizon)

    def test_equals_a_brute_force_count(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            start = float(rng.uniform(-1e3, 1e3))
            t_slot = float(rng.choice([0.01, 0.1, 0.3, 0.25, 1.0 / 3.0]))
            on_time = start + int(rng.integers(0, 300)) * t_slot
            # On a service time, an ulp either side of it (where the quotient
            # may round past the count), or between two services.
            horizon = [on_time, float(np.nextafter(on_time, -np.inf)),
                       float(np.nextafter(on_time, np.inf)),
                       on_time + 0.5 * t_slot][int(rng.integers(0, 4))]
            assert _service_count(start, t_slot, horizon) == brute_service_count(
                start, t_slot, horizon)


@st.composite
def perturbed_packs(draw):
    n_cells = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    victim = draw(st.integers(0, n_cells - 1))
    glitch = draw(st.lists(st.one_of(st.floats(-0.5, 0.5), st.sampled_from([5.0, 1e9])),
                           min_size=1, max_size=5))
    return n_cells, seed, victim, glitch


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perturbed_packs())
def test_slot_isolation_under_a_perturbed_stream(case):
    """Glitching one cell's voltages changes no bit of any other cell's run or slot."""
    n_cells, seed, victim, glitch = case
    rng = np.random.default_rng(seed)
    ids = tuple(f"c{j}" for j in range(n_cells))
    cells = {cid: random_cell(rng) for cid in ids}
    t_slot = 0.5 / n_cells
    sched = SchedulerConfig(t_slot=t_slot, cells=ids, f_max=1.0)
    setups = {cid: (cells[cid], EkfConfig.default(cells[cid], initial_soc=0.7)) for cid in ids}
    t = np.arange(0.0, 30.0, 0.1)
    traces = {}
    for cid in ids:
        current = 3.0 * np.sin(2 * np.pi * t / rng.uniform(5.0, 20.0))
        start = CellState.rest(vqst_from_soc(cells[cid], 0.6), cells[cid].n_rc)
        traces[cid] = simulate(cells[cid], Trace(t, current), start).trace
    bad = dict(traces)
    trace = traces[ids[victim]]
    voltage = trace.voltage.copy()
    where = rng.choice(t.size, size=len(glitch), replace=False)
    voltage[where] += glitch
    bad[ids[victim]] = Trace(trace.timestamps, trace.current, voltage)

    def run(traces):
        engine = MultiCellEkf(sched, setups)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return engine, engine.run(traces)

    (clean, clean_series), (glitched, glitched_series) = run(traces), run(bad)
    for cid in ids:
        if cid == ids[victim]:
            continue
        a, b = clean_series[cid], glitched_series[cid]
        assert np.array_equal(bits(a.soc_est), bits(b.soc_est))
        assert np.array_equal(bits(a.innovations), bits(b.innovations))
        sa, sb = clean.slots[cid], glitched.slots[cid]
        assert clean.served_at[cid] == glitched.served_at[cid]
        assert np.array_equal(bits(sa.ekf.mean.v_qst), bits(sb.ekf.mean.v_qst))
        assert np.array_equal(bits(sa.ekf.mean.v_dyn_components),
                              bits(sb.ekf.mean.v_dyn_components))
        assert np.array_equal(bits(sa.ekf.covariance), bits(sb.ekf.covariance))


@st.composite
def ticked_packs(draw):
    n_cells = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    start = draw(st.floats(-1e4, 1e4))
    gap = draw(st.floats(1.5, 6.0))  # s; two revolutions are 1 s
    spikes = draw(st.integers(0, 8))
    return n_cells, seed, start, gap, spikes


def drawn_pack(case, samples=300, gap_by=20.0):
    """The pack a ``ticked_packs`` case draws: its scheduler, cells, setups and
    traces of ``samples`` samples every 0.1 s from the start time. Some cells'
    traces have a gap of the drawn length, starting within ``gap_by`` s, and
    every trace has the drawn number of currents past the resistor curve."""
    n_cells, seed, start, gap, spikes = case
    rng = np.random.default_rng(seed)
    ids = tuple(f"c{j}" for j in range(n_cells))
    cells = {cid: random_cell(rng) for cid in ids}
    sched = SchedulerConfig(t_slot=0.5 / n_cells, cells=ids, f_max=1.0)
    setups = {cid: (cells[cid], EkfConfig.default(cells[cid], initial_soc=rng.uniform(0.3, 0.9)))
              for cid in ids}
    traces = {}
    for cid in ids:
        t = start + 0.1 * np.arange(samples)
        if rng.random() < 0.5:
            g0 = start + rng.uniform(1.0, gap_by)
            t = t[(t < g0) | (t >= g0 + gap)]
        current = 3.0 * np.sin(2 * np.pi * (t - start) / rng.uniform(5.0, 20.0))
        first = CellState.rest(vqst_from_soc(cells[cid], 0.6), cells[cid].n_rc)
        trace = simulate(cells[cid], Trace(t, current), first).trace
        current = trace.current.copy()
        current[rng.choice(t.size, size=spikes, replace=False)] = rng.choice([-80.0, 80.0], spikes)
        traces[cid] = Trace(trace.timestamps, current, trace.voltage)
    return sched, cells, setups, traces


def grid_tick(engine, traces, k, late=0):
    """Tick service k of the engine's grid ``late`` revolutions after its instant,
    with the sample its cell's trace holds then: (that sample's index, result)."""
    ids, t_slot = engine.config.cells, engine.config.t_slot
    cid = ids[k % len(ids)]
    now = engine.start_time + (k + late * len(ids) + 1) * t_slot
    trace = traces[cid]
    idx = int(np.searchsorted(trace.timestamps, now + 1e-9 * t_slot, side="right")) - 1
    return idx, engine.tick(now, Measurement(cid, float(trace.current[idx]),
                                             float(trace.voltage[idx])))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ticked_packs())
def test_ticking_any_schedule_is_run_bit_for_bit(case):
    """Random packs from a random start time, some cells with a gap in their
    trace (so services hold samples older than two revolutions) and some
    currents past the resistor curve's 50 A: ticking the schedule gives run's
    SoC and innovation bits, held samples, clamp counts, final slots and ring
    position."""
    sched, cells, setups, traces = drawn_pack(case)
    ids, start = sched.cells, case[2]
    batch = MultiCellEkf(sched, setups, start_time=start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = batch.run(traces)

    online = MultiCellEkf(sched, setups, start_time=start)
    columns = {cid: np.empty((3, series[cid].times.size)) for cid in ids}
    ticked = {cid: Counter() for cid in ids}
    for k in range(sum(s.times.size for s in series.values())):
        cid, n = ids[k % len(ids)], k // len(ids)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            idx, out = grid_tick(online, traces, k)
        ticked[cid] += Counter(str(w.message) for w in caught if w.category is OutOfRangeWarning)
        columns[cid][:, n] = out.time, out.soc, out.innovation
        assert series[cid].sample_index[n] == idx

    assert online.due_cell == batch.due_cell
    for cid in ids:
        s, (times, soc, innovations) = series[cid], columns[cid]
        assert np.array_equal(bits(times), bits(s.times))
        assert np.array_equal(bits(soc), bits(s.soc_est))
        assert np.array_equal(bits(innovations), bits(s.innovations))
        assert ticked[cid] == +Counter({_current_clamp_message(cells[cid].resistor):
                                        s.current_clamps,
                                        _soc_clamp_message(cells[cid]): s.soc_clamps})
        got, want = online.slots[cid], batch.slots[cid]
        assert online.served_at[cid] == batch.served_at[cid]
        assert np.array_equal(bits(got.ekf.mean.v_qst), bits(want.ekf.mean.v_qst))
        assert np.array_equal(bits(got.ekf.mean.v_dyn_components),
                              bits(want.ekf.mean.v_dyn_components))
        assert np.array_equal(bits(got.ekf.covariance), bits(want.ekf.covariance))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(ticked_packs(), st.integers(0, 2**32 - 1))
def test_reading_slots_while_ticking_is_run_bit_for_bit(case, reads):
    """Ticking a drawn schedule while reading ``slot.ekf`` between ticks, and
    at times assigning what was read back, gives ``run``'s SoC and innovation
    bits and final slots: a read is a copy and an assignment of it is exact."""
    sched, _, setups, traces = drawn_pack(case, samples=200, gap_by=15.0)
    ids, start = sched.cells, case[2]
    batch = MultiCellEkf(sched, setups, start_time=start)
    online = MultiCellEkf(sched, setups, start_time=start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = batch.run(traces)
        draws = np.random.default_rng(reads)
        columns = {cid: np.empty((2, series[cid].times.size)) for cid in ids}
        for k in range(sum(s.times.size for s in series.values())):
            for slot in online.slots.values():
                action = draws.integers(3)
                if action:
                    read = slot.ekf
                    read.covariance *= 2.0  # a write into a read reaches no slot
                    if action == 2:
                        slot.ekf = slot.ekf
            _, out = grid_tick(online, traces, k)
            columns[ids[k % len(ids)]][:, k // len(ids)] = out.soc, out.innovation

    assert snapshot(online) == snapshot(batch)
    for cid in ids:
        soc, innovations = columns[cid]
        assert np.array_equal(bits(soc), bits(series[cid].soc_est))
        assert np.array_equal(bits(innovations), bits(series[cid].innovations))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ticked_packs(), st.data())
def test_run_after_ticks_on_the_grid_is_ticking_the_whole_grid(case, data):
    """Ticking a drawn prefix of the grid and then running the traces leaves
    every slot, service time and the due cell as ticking the whole grid does,
    and the run's times, SoC and innovations are those of the ticks it stands
    in for, bit for bit. With the prefix's next service ticked a revolution
    late instead, the run meets that cell's last service at its next grid
    instant: it is refused and leaves the engine as it was."""
    sched, _, setups, traces = drawn_pack(case)
    ids, start = sched.cells, case[2]
    n = len(ids)
    horizon = min(float(trace.timestamps[-1]) for trace in traces.values())
    services = _service_count(start, sched.t_slot, horizon)
    prefix = data.draw(st.integers(0, services), label="prefix")
    whole = MultiCellEkf(sched, setups, start_time=start)
    resumed = MultiCellEkf(sched, setups, start_time=start)
    late = MultiCellEkf(sched, setups, start_time=start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ticks = [grid_tick(whole, traces, k)[1] for k in range(services)]
        for k in range(prefix):
            grid_tick(resumed, traces, k)
            grid_tick(late, traces, k)
        series = resumed.run(traces)
        if prefix + n < services:
            grid_tick(late, traces, prefix, late=1)
            before = snapshot(late)
            with pytest.raises(SchedulingViolationError, match="does not advance past"):
                late.run(traces)
            assert snapshot(late) == before

    assert snapshot(resumed) == snapshot(whole)
    for j, cid in enumerate(ids):
        stood_in = ticks[prefix + (j - prefix) % n::n]
        s = series[cid]
        assert np.array_equal(bits(s.times), bits([out.time for out in stood_in]))
        assert np.array_equal(bits(s.soc_est), bits([out.soc for out in stood_in]))
        assert np.array_equal(bits(s.innovations), bits([out.innovation for out in stood_in]))
