"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n [PASS|FAIL]`` line (visible with -s or in
captured output) and asserts its runtime bound.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cellsoc import (
    CellState,
    EkfConfig,
    MultiCellEkf,
    SchedulerConfig,
    Trace,
    correct,
    coulomb_count,
    estimate_soc,
    make_filter,
    max_frequency,
    predict,
    run_filter,
    simulate,
    soc_from_vqst,
    us06_like_profile,
    validation_profile,
    vqst_from_soc,
)
from cellsoc.cli import main
from helpers import (
    identification_trace, make_cell, oracle_service_soc, random_cell, relative_rms, step,
    transition_jacobian)


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [FAIL] {title} ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number} [PASS] {title} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s runtime budget"


# ---------------------------------------------------------------------------
# Shared validation scenario (criteria 3 and 6 reuse it).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def validation_scenario():
    """Simulated cell on the 37-hour validation profile at 1 s resolution."""
    cell = make_cell()
    source = us06_like_profile(
        duration=600.0, sample_period=1.0, peak=44.0, bandwidth=0.4, f_low=0.01, seed=5
    )
    profile = validation_profile(source, slow_sample_period=1.0)
    initial = CellState.rest(vqst_from_soc(cell, 1.0), cell.n_rc)
    truth = simulate(cell, profile, initial)
    return cell, truth


def test_criterion_1_cell_budget(tmp_path, capsys):
    with criterion(1, "cell budget: 25 at (2 Hz, 10 ms); 26 cells refused", budget_s=1.0):
        assert main(["budget", "2", "0.01"]) == 0
        assert capsys.readouterr().out.strip() == "25"
        with pytest.raises(Exception):
            SchedulerConfig(t_slot=0.01, cells=tuple(f"c{i}" for i in range(26)), f_max=2.0)


def test_criterion_2_round_robin_equivalence():
    with criterion(2, "round-robin equals independent EKFs for N in {1, 5, 18, 25}",
                   budget_s=60.0):
        horizon = 3600.0
        for n_cells in (1, 5, 18, 25):
            rng = np.random.default_rng(1000 + n_cells)
            ids = tuple(f"c{i:02d}" for i in range(n_cells))
            cells = {cid: random_cell(rng) for cid in ids}
            t_slot = 1.0 / n_cells  # 1 Hz effective per-cell rate
            sched = SchedulerConfig(t_slot=t_slot, cells=ids, f_max=0.5)
            cfgs = {cid: EkfConfig.default(cells[cid], initial_soc=0.8) for cid in ids}

            traces = {}
            for j, cid in enumerate(ids):
                first = (j + 1) * t_slot
                t = first + 1.0 * np.arange(int(horizon))
                current = 2.0 * np.sin(2.0 * np.pi * t / 600.0)
                initial = CellState.rest(vqst_from_soc(cells[cid], 1.0), cells[cid].n_rc)
                traces[cid] = simulate(cells[cid], Trace(t, current), initial).trace

            engine = MultiCellEkf(sched, {cid: (cells[cid], cfgs[cid]) for cid in ids})
            series = engine.run(traces)

            worst = 0.0
            for cid in ids:
                n = series[cid].soc_est.size
                trace = traces[cid]
                oracle = oracle_service_soc(cells[cid], cfgs[cid], trace.current[:n],
                                            trace.voltage[:n], n_cells * t_slot)
                worst = max(worst, float(np.max(np.abs(series[cid].soc_est - oracle))))
            assert worst <= 1e-10, f"N={n_cells}: max SoC difference {worst:.3e}"


def test_criterion_3_ekf_convergence(validation_scenario):
    with criterion(3, "EKF convergence from 20% initial error on the validation profile",
                   budget_s=120.0):
        cell, truth = validation_scenario
        cfg = EkfConfig.default(cell, initial_soc=0.80)
        assert abs(estimate_soc(make_filter(cfg), cell) - 0.80) < 1e-9

        run = run_filter(cell, truth.trace, cfg)
        true_soc = np.array([soc_from_vqst(cell, float(v)) for v in truth.v_qst])
        err = np.abs(run.soc - true_soc)
        t = truth.trace.timestamps

        end_first_segment = t <= 6 * 3600.0
        assert err[end_first_segment][-1] < 0.02, "error at the end of the 6 h discharge"

        rests = ((t > 6 * 3600.0) & (t < 18 * 3600.0)) | ((t > 24 * 3600.0) & (t < 36 * 3600.0))
        assert float(np.max(err[rests])) < 0.01, "error during the rest phases"

        fast = t > 36 * 3600.0
        assert float(np.max(err[fast])) < 0.10, "error during the high-dynamics hour"


def test_criterion_4_identification_round_trip():
    with criterion(4, "identification round-trip on 20 randomized cells", budget_s=300.0):
        rng = np.random.default_rng(2024)
        for i in range(20):
            cell = random_cell(rng)
            trace, _ = identification_trace(cell, charge_amplitudes=(2.0,), sample_period=4.0)
            from cellsoc import IdentificationConfig, identify

            got = identify(trace, IdentificationConfig()).params

            assert len(got.rc_groups) == 2, f"cell {i}: model order not recovered"
            sum_r_true = sum(g.r for g in cell.rc_groups)
            sum_r_est = sum(g.r for g in got.rc_groups)
            assert sum_r_est == pytest.approx(sum_r_true, rel=0.05), f"cell {i}: sum of R"
            for g_est, g_true in zip(got.rc_groups, cell.rc_groups):
                assert g_est.tau == pytest.approx(g_true.tau, rel=0.10), f"cell {i}: tau"

            common = np.linspace(got.v_min, got.v_max, 96)
            rms = relative_rms(got.capacitance.eval(common), cell.capacitance.eval(common))
            assert rms < 0.03, f"cell {i}: capacitance curve RMS {rms:.4f}"

            cell_width = (got.v_max - got.v_min) / (96 - 1)
            assert abs(got.nominal_voltage_v_n - cell.nominal_voltage_v_n) <= cell_width, (
                f"cell {i}: nominal voltage off by more than one grid cell"
            )


def test_criterion_5_soc_definition_consistency():
    with criterion(5, "capacitance-curve SoC vs coulomb counting within 1e-4",
                   budget_s=120.0):
        rng = np.random.default_rng(77)
        worst = 0.0
        for i in range(50):
            cell = random_cell(rng)
            dt = cell.tau_min / 10.0
            t = dt * np.arange(int(3600.0 / dt))
            # Smooth band-limited excitation plus a slow drift, scaled to keep
            # the trajectory inside the voltage window.
            current = (
                rng.uniform(0.3, 2.0) * np.sin(2 * np.pi * t / rng.uniform(200, 900))
                + rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * t / rng.uniform(40, 150))
                + rng.uniform(-0.2, 0.2)
            )
            soc0 = rng.uniform(0.3, 0.7)
            max_swing = float(np.max(np.abs(np.cumsum(current) * dt))) / cell.delta_q
            if max_swing > 0.25:
                current *= 0.25 / max_swing
            initial = CellState.rest(vqst_from_soc(cell, soc0), cell.n_rc)
            res = simulate(cell, Trace(t, current), initial)
            assert not res.saturation_events
            soc_curve = np.array([soc_from_vqst(cell, float(v)) for v in res.v_qst])
            soc_coulomb = coulomb_count(res.trace, cell.delta_q, soc0)
            worst = max(worst, float(np.max(np.abs(soc_curve - soc_coulomb))))
        assert worst <= 1e-4, f"worst SoC disagreement {worst:.2e}"


def test_criterion_6_numerical_hygiene(validation_scenario):
    with criterion(6, "jacobian vs finite differences, PSD covariance, linear-KF oracle",
                   budget_s=300.0):
        # (a) transition Jacobian vs central finite differences, 1000 points
        rng = np.random.default_rng(4242)
        worst = 0.0
        for _ in range(1000):
            cell = random_cell(rng)
            span = cell.v_max - cell.v_min
            grid = cell.capacitance.grid
            inner = grid[(grid > cell.v_min + 0.15 * span) & (grid < cell.v_max - 0.15 * span)]
            seg = rng.integers(0, inner.size - 1)
            u = rng.uniform(0.15, 0.85)
            v = float(inner[seg] + u * (inner[seg + 1] - inner[seg]))
            state = CellState(v, rng.normal(0.0, 0.02, cell.n_rc))
            i_k = float(rng.uniform(-5.0, 5.0))
            dt = float(rng.uniform(0.2, 1.0) * min(cell.dt_guard, 10.0))
            f = transition_jacobian(state, cell, i_k, dt)
            h = 1e-7
            sp = step(CellState(v + h, state.v_dyn_components.copy()), cell, i_k, dt)
            sm = step(CellState(v - h, state.v_dyn_components.copy()), cell, i_k, dt)
            for row, tau in enumerate(cell.taus, start=1):
                assert f[row, row] == pytest.approx(np.exp(-dt / tau), rel=1e-12)
            fd = (sp.v_qst - sm.v_qst) / (2.0 * h)
            worst = max(worst, abs(f[0, 0] - fd) / max(abs(fd), 1e-12))
        assert worst <= 1e-5, f"worst jacobian mismatch {worst:.2e}"

        # (b) covariance symmetric PSD after every update across a full run
        cell, truth = validation_scenario
        cfg = EkfConfig.default(cell, initial_soc=0.80)
        from cellsoc import interval_currents

        trace = truth.trace
        i_eff = interval_currents(trace.current)
        state = make_filter(cfg)
        min_eig = np.inf
        for k in range(len(trace)):
            if k > 0:
                dt = float(trace.timestamps[k] - trace.timestamps[k - 1])
                state = predict(state, cell, float(i_eff[k - 1]), dt, cfg)
                assert np.array_equal(state.covariance, state.covariance.T)
                min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(state.covariance))))
            state = correct(state, cell, float(trace.voltage[k]), float(trace.current[k]), cfg)
            assert np.array_equal(state.covariance, state.covariance.T)
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(state.covariance))))
        assert min_eig >= -1e-10, f"covariance eigenvalue dipped to {min_eig:.2e}"

        # (c) linear-cell EKF equals a textbook linear Kalman filter to 1e-10
        from cellsoc import CellParameters, MonotoneCurve, RcGroup
        from helpers import make_resistor

        lin = CellParameters.from_curves(
            2.9, 3.7, MonotoneCurve([2.9, 3.7], [20000.0, 20000.0]),
            (RcGroup(0.015, 50.0),), make_resistor(0.03),
        )
        dt = 2.0
        q = 1e-8 * np.eye(2)
        r = 1e-4
        p0 = np.diag([0.04, 1e-4])
        kf_cfg = EkfConfig(q, r, p0, CellState(3.25, np.zeros(1)))
        state = make_filter(kf_cfg)
        x = np.array([3.25, 0.0])
        p = p0.copy()
        h_row = np.array([[1.0, 1.0]])
        a_rc = np.exp(-dt / 50.0)
        rng = np.random.default_rng(11)
        for k in range(500):
            i_k = float(rng.uniform(-3.0, 3.0))
            z_k = float(3.3 + 0.02 * rng.standard_normal())
            f_mat = np.diag([1.0, a_rc])
            b = np.array([dt / 20000.0, 0.015 * (1.0 - a_rc)])
            x = f_mat @ x + b * i_k
            p = f_mat @ p @ f_mat.T + q * dt
            s = (h_row @ p @ h_row.T).item() + r
            gain = (p @ h_row.T / s).ravel()
            x = x + gain * (z_k - (h_row @ x).item() - 0.03 * i_k)
            ikh = np.eye(2) - np.outer(gain, h_row.ravel())
            p = ikh @ p @ ikh.T + r * np.outer(gain, gain)

            state = predict(state, lin, i_k, dt, kf_cfg)
            state = correct(state, lin, z_k, i_k, kf_cfg)
            assert abs(state.mean.v_qst - x[0]) <= 1e-10
            assert abs(state.mean.v_dyn_components[0] - x[1]) <= 1e-10
            assert np.max(np.abs(state.covariance - p)) <= 1e-10


def test_criterion_7_profile_fidelity():
    with criterion(7, "37 h validation profile, 44 A clamp, stand-in band-limit 2 Hz",
                   budget_s=60.0):
        source = us06_like_profile(
            duration=600.0, sample_period=0.1, peak=44.0, bandwidth=2.0, seed=3
        )
        profile = validation_profile(source, slow_sample_period=1.0)
        total = float(profile.timestamps[-1] - profile.timestamps[0])
        assert abs(total - 37.0 * 3600.0) <= 1.0, f"duration {total} s"
        assert float(np.max(np.abs(profile.current))) <= 44.0
        assert max_frequency(source, 0.999) <= 2.0
