import warnings

import numpy as np
import pytest

from cellsoc import (
    BudgetExceededError,
    CellState,
    EkfConfig,
    InvalidInputError,
    Measurement,
    MultiCellEkf,
    SchedulerConfig,
    SchedulingViolationError,
    SchedulingWarning,
    Trace,
    correct,
    make_filter,
    max_cells,
    predict,
    simulate,
    vqst_from_soc,
)
from helpers import make_cell, random_cell


class TestMaxCells:
    def test_paper_operating_point(self):
        assert max_cells(2.0, 0.01) == 25

    def test_trivial_product(self):
        assert max_cells(0.5, 1.0) == 1

    def test_hand_evaluated_floor(self):
        assert max_cells(2.0, 0.021) == 11

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            max_cells(0.0, 0.01)
        with pytest.raises(InvalidInputError):
            max_cells(2.0, -1.0)


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

        reference = make_filter(cfg)
        for k in range(len(trace)):
            now = float(trace.timestamps[k])
            i_k = float(trace.current[k])
            v_k = float(trace.voltage[k])
            result = engine.tick(now, Measurement("only", i_k, v_k))
            reference = predict(reference, cell, i_k, 1.0, cfg)
            reference = correct(reference, cell, v_k, i_k, cfg)
            assert result.soc == pytest.approx(
                __import__("cellsoc").estimate_soc(reference, cell), abs=1e-12
            )

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
        series = engine.run(traces, ref_soc0=1.0)

        worst = 0.0
        for cid in ids:
            state = make_filter(cfgs[cid])
            cell = cells[cid]
            trace = traces[cid]
            soc_ref = []
            for k in range(series[cid].times.size):
                i_k = float(trace.current[k])
                v_k = float(trace.voltage[k])
                state = predict(state, cell, i_k, n_cells * t_slot, cfgs[cid])
                state = correct(state, cell, v_k, i_k, cfgs[cid])
                soc_ref.append(__import__("cellsoc").estimate_soc(state, cell))
            worst = max(worst, float(np.max(np.abs(series[cid].soc_est - np.array(soc_ref)))))
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
        series = engine.run(traces, ref_soc0=1.0)
        n = min(series["a"].soc_est.size, series["b"].soc_est.size)
        assert not np.allclose(series["a"].soc_est[:n], series["b"].soc_est[:n])
        # per-slot parameters: each filter tracks its own cell's truth
        assert abs(series["a"].soc_est[-1] - series["a"].soc_ref[-1]) < 0.01
        assert abs(series["b"].soc_est[-1] - series["b"].soc_ref[-1]) < 0.01

    def test_reference_column_nan_without_ref(self):
        cell = make_cell()
        sched = SchedulerConfig(t_slot=0.5, cells=("a",), f_max=0.5)
        traces = {"a": service_grid_trace(cell, 50, 0.5, 0.5, lambda t: np.zeros_like(t))}
        engine = MultiCellEkf(sched, {"a": (cell, EkfConfig.default(cell))})
        series = engine.run(traces)
        assert np.all(np.isnan(series["a"].soc_ref))

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
        series = engine.run(traces, ref_soc0=1.0)
        for cid in ids:
            s = series[cid]
            # c_n equals delta_q for these cells, so the reference is exact.
            assert abs(s.soc_est[-1] - s.soc_ref[-1]) < 0.02
            assert np.max(np.abs(s.soc_est[-100:] - s.soc_ref[-100:])) < 0.02

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
                assert got.last_serviced_t == want.last_serviced_t
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
