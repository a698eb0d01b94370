import math

import numpy as np
import pytest

from cellsoc import (
    CellParameters,
    CellState,
    ConfigurationError,
    InvalidParametersError,
    MonotoneCurve,
    OutOfRangeWarning,
    RcGroup,
    SaturationWarning,
    Trace,
    constant_profile,
    coulomb_count,
    interval_currents,
    output_voltage,
    reconstruct_v_dyn,
    simulate,
    soc_from_vqst,
    step,
    vqst_from_soc,
)
from helpers import (
    identification_trace, make_cell, make_resistor, random_cell, rc_recurrence,
    running_charge_vqst)


def constant_c_cell(c=3600.0, v_min=2.9, v_max=3.7, rc=((0.01, 10.0), (0.02, 40.0)), r0=0.05):
    return CellParameters.from_curves(
        v_min,
        v_max,
        MonotoneCurve([v_min, v_max], [c, c]),
        tuple(RcGroup(r, tau) for r, tau in rc),
        make_resistor(r0),
    )


class TestTypes:
    def test_rc_group_validation(self):
        with pytest.raises(InvalidParametersError):
            RcGroup(-0.01, 10.0)
        with pytest.raises(InvalidParametersError):
            RcGroup(0.01, 0.0)

    def test_taus_must_strictly_increase(self):
        with pytest.raises(InvalidParametersError):
            constant_c_cell(rc=((0.01, 10.0), (0.02, 10.0)))
        with pytest.raises(InvalidParametersError):
            constant_c_cell(rc=((0.01, 40.0), (0.02, 10.0)))

    def test_at_least_one_rc_group(self):
        with pytest.raises(InvalidParametersError):
            constant_c_cell(rc=())

    def test_delta_q_invariant(self):
        cell = make_cell()
        integral = cell.capacitance.integrate(cell.v_min, cell.v_max)
        assert cell.delta_q == integral
        with pytest.raises(InvalidParametersError):
            CellParameters(
                v_min=cell.v_min,
                v_max=cell.v_max,
                capacitance=cell.capacitance,
                rc_groups=cell.rc_groups,
                resistor=cell.resistor,
                delta_q=cell.delta_q * 1.001,
                nominal_capacity_c_n=cell.nominal_capacity_c_n,
                nominal_voltage_v_n=cell.nominal_voltage_v_n,
            )

    def test_v_n_is_capacitance_peak(self):
        cell = make_cell(center=3.25)
        peak = cell.capacitance.grid[np.argmax(cell.capacitance.values)]
        assert cell.nominal_voltage_v_n == peak
        assert abs(cell.nominal_voltage_v_n - 3.25) < 0.01

    def test_resistor_through_zero(self):
        bad = MonotoneCurve([-1.0, 1.0], [0.01, 0.05])
        with pytest.raises(InvalidParametersError):
            CellParameters.from_curves(
                2.9, 3.6, MonotoneCurve([2.9, 3.6], [100.0, 100.0]),
                (RcGroup(0.01, 10.0),), bad,
            )

    def test_capacitance_positive(self):
        with pytest.raises(InvalidParametersError):
            CellParameters.from_curves(
                2.9, 3.6, MonotoneCurve([2.9, 3.6], [100.0, -1.0]),
                (RcGroup(0.01, 10.0),), make_resistor(),
            )

    def test_trace_validation(self):
        with pytest.raises(InvalidParametersError):
            Trace([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(InvalidParametersError):
            Trace([0.0, 1.0], [0.0])
        with pytest.raises(InvalidParametersError):
            Trace([0.0], [0.0])
        t = Trace([0.0, 1.0], [0.5, 0.5])
        assert t.voltage is None
        with pytest.raises(Exception):
            t.require_voltage()


class TestOutputVoltage:
    def test_rest_state_zero_current(self):
        cell = constant_c_cell()
        assert output_voltage(CellState(3.3, np.zeros(2)), cell, 0.0) == 3.3

    def test_pure_summation(self):
        cell = constant_c_cell()
        v = output_voltage(CellState(3.3, np.array([0.01, 0.02])), cell, 0.0)
        assert v == pytest.approx(3.33, abs=1e-15)

    def test_linear_resistor_drop(self):
        # Hand evaluation with a 0.05 ohm linear instantaneous resistor.
        cell = constant_c_cell(r0=0.05)
        v = output_voltage(CellState(3.3, np.zeros(2)), cell, 1.0)
        assert v == pytest.approx(3.35, abs=1e-12)

    def test_out_of_range_current_clamps_and_warns(self):
        cell = constant_c_cell(r0=0.05)
        with pytest.warns(OutOfRangeWarning):
            v = output_voltage(CellState(3.3, np.zeros(2)), cell, 1000.0)
        assert v == pytest.approx(3.3 + 0.05 * 50.0)

    def test_non_finite_rejected(self):
        cell = constant_c_cell()
        with pytest.raises(Exception):
            output_voltage(CellState(3.3, np.zeros(2)), cell, math.nan)


class TestStep:
    def test_zero_current_decay(self):
        cell = constant_c_cell()
        s0 = CellState(3.3, np.array([0.04, -0.02]))
        dt = 1.5
        s1 = step(s0, cell, 0.0, dt)
        assert s1.v_qst == 3.3
        expected = s0.v_dyn_components * np.exp(-dt / cell.taus)
        assert np.allclose(s1.v_dyn_components, expected, rtol=1e-15)

    def test_constant_capacitance_exact_increment(self):
        cell = constant_c_cell(c=3600.0)
        s1 = step(CellState(3.3, np.zeros(2)), cell, 1.0, 1.0)
        assert s1.v_qst == pytest.approx(3.3 + 1.0 / 3600.0, abs=1e-15)

    def test_dt_guard(self):
        cell = constant_c_cell(rc=((0.01, 10.0), (0.02, 40.0)))
        with pytest.raises(ConfigurationError):
            step(CellState(3.3, np.zeros(2)), cell, 0.0, -1.0)

    def test_one_long_step_equals_the_chained_short_steps(self):
        """Both maps are exact, so a step 30x tau_min/5 long is the chain of
        30 steps of tau_min/5 to rounding."""
        cell = make_cell(rc=((0.012, 10.0), (0.02, 40.0)))  # tau_min/5 = 2 s
        start = CellState(3.3, np.array([0.01, -0.02]))
        long = step(start, cell, -2.0, 60.0)
        chained = start
        for _ in range(30):
            chained = step(chained, cell, -2.0, 2.0)
        assert long.v_qst != start.v_qst
        assert long.v_qst == pytest.approx(chained.v_qst, abs=1e-12)
        np.testing.assert_allclose(long.v_dyn_components, chained.v_dyn_components,
                                   rtol=0.0, atol=1e-12)

    def test_rc_group_converges_to_steady_state(self):
        cell = constant_c_cell(c=1e7, rc=((0.01, 10.0),), r0=0.0)
        s = CellState(3.3, np.zeros(1))
        for _ in range(5000):
            s = step(s, cell, 2.0, 1.0)
        assert s.v_dyn_components[0] == pytest.approx(0.02, abs=1e-9)

    def test_exact_map_matches_closed_form(self):
        cell = constant_c_cell(rc=((0.013, 37.0),))
        v0, i, dt = 0.0123, -1.7, 3.0
        s1 = step(CellState(3.3, np.array([v0])), cell, i, dt)
        closed = cell.rs[0] * i + (v0 - cell.rs[0] * i) * math.exp(-dt / cell.taus[0])
        assert s1.v_dyn_components[0] == pytest.approx(closed, rel=1e-12)

    def test_saturation_clamps_and_warns(self):
        cell = constant_c_cell(c=10.0, rc=((0.01, 10.0),))
        s = CellState(cell.v_max, np.zeros(1))
        with pytest.warns(SaturationWarning):
            s1 = step(s, cell, 30.0, 0.1)
        assert s1.v_qst == pytest.approx(cell.v_max + 0.05)


class TestVdynSteady:
    def test_long_horizon_step_integration(self):
        cell = constant_c_cell(c=1e7, rc=((0.01, 10.0), (0.02, 40.0)), r0=0.0)
        s = CellState(3.3, np.zeros(2))
        for _ in range(2000):
            s = step(s, cell, 2.0, 1.0)
        # The steady dynamic voltage: sum(r) * i = (0.01 + 0.02) ohm * 2 A = 0.06 V.
        assert float(np.sum(s.v_dyn_components)) == pytest.approx(
            float(np.sum(cell.rs)) * 2.0, abs=1e-6
        )


class TestSoc:
    def test_normalization_exact(self):
        for cell in (make_cell(), make_cell(base=9000.0, bump=12000.0, width=0.15)):
            assert soc_from_vqst(cell, cell.v_min) == 0.0
            assert soc_from_vqst(cell, cell.v_max) == 1.0

    def test_constant_capacitance_midpoint(self):
        cell = constant_c_cell()
        mid = 0.5 * (cell.v_min + cell.v_max)
        assert soc_from_vqst(cell, mid) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_over_random_curves(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cell = random_cell(rng)
            vs = np.sort(rng.uniform(cell.v_min, cell.v_max, 20))
            socs = [soc_from_vqst(cell, v) for v in vs]
            assert np.all(np.diff(socs) >= 0.0)
            assert all(0.0 <= s <= 1.0 for s in socs)

    def test_clamped_with_flag(self):
        cell = make_cell()
        with pytest.warns(OutOfRangeWarning):
            assert soc_from_vqst(cell, cell.v_max + 1.0) == 1.0

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        cell = random_cell(rng)
        for s in rng.uniform(0.0, 1.0, 25):
            v = vqst_from_soc(cell, float(s))
            assert soc_from_vqst(cell, v) == pytest.approx(s, abs=1e-10)


class TestCoulombCount:
    def test_zero_current_constant(self):
        t = np.arange(100.0)
        trace = Trace(t, np.zeros_like(t))
        soc = coulomb_count(trace, 15840.0, 0.7)
        assert np.all(soc == 0.7)

    def test_six_hour_discharge(self):
        # 0.4 A for 6 h on a 4.4 Ah cell from full: 1 - 2.4/4.4.
        t = np.arange(0.0, 21601.0, 1.0)
        trace = Trace(t, np.full_like(t, -0.4))
        soc = coulomb_count(trace, 4.4 * 3600.0, 1.0)
        assert soc[-1] == pytest.approx(1.0 - 2.4 / 4.4, abs=1e-12)

    def test_charge_discharge_antisymmetry(self):
        # Zero-surrounded equal pulses: the integral returns exactly to soc0.
        current = np.concatenate(
            (np.zeros(1), np.full(500, 1.3), np.zeros(1), np.full(500, -1.3), np.zeros(1))
        )
        trace = Trace(np.arange(float(current.size)), current)
        soc = coulomb_count(trace, 5000.0, 0.5)
        assert soc[-1] == pytest.approx(0.5, abs=1e-12)

    def test_unclamped_with_warning(self):
        t = np.arange(0.0, 101.0)
        trace = Trace(t, np.full_like(t, 10.0))
        with pytest.warns(OutOfRangeWarning):
            soc = coulomb_count(trace, 100.0, 0.9)
        assert soc[-1] > 1.0  # definition does not clamp


class TestSimulate:
    def test_zero_current_flat_voltage(self):
        cell = make_cell()
        profile = constant_profile(0.0, 600.0, 2.0)
        res = simulate(cell, profile, CellState(3.2, np.zeros(2)))
        assert np.all(res.v_qst == 3.2)
        assert np.allclose(res.trace.voltage, 3.2, atol=1e-15)

    def test_rest_tail_is_pure_multiexponential(self):
        cell = make_cell(rc=((0.012, 60.0), (0.02, 700.0)))
        t = np.arange(0.0, 6000.0, 5.0)
        current = np.where(t < 600.0, -2.0, 0.0)
        res = simulate(cell, Trace(t, current), CellState(3.3, np.zeros(2)))
        # Analytic decay from the first fully-rested sample onward.
        k0 = int(np.searchsorted(t, 605.0))
        amps = res.v_dyn[k0]
        rel_t = t[k0:] - t[k0]
        analytic = amps[0] * np.exp(-rel_t / 60.0) + amps[1] * np.exp(-rel_t / 700.0)
        dynamic = res.trace.voltage[k0:] - res.v_qst[k0:]
        assert np.allclose(dynamic, analytic, atol=1e-12)

    def test_discharge_soc_drop_cross_check(self):
        # 0.4 A over 6 h moves 8640 C; with c_n = delta_q both SoC definitions agree.
        cell = make_cell()
        profile = constant_profile(-0.4, 21600.0, 10.0)
        start_v = vqst_from_soc(cell, 1.0)
        res = simulate(cell, profile, CellState(start_v, np.zeros(2)))
        soc_model = soc_from_vqst(cell, float(res.v_qst[-1]))
        expected_drop = 0.4 * 21600.0 / cell.delta_q
        assert soc_model == pytest.approx(1.0 - expected_drop, abs=2e-4)

    def test_zero_current_decomposition(self):
        cell = make_cell()
        t = np.arange(0.0, 3000.0, 5.0)
        current = np.where(t < 300.0, 1.5, 0.0)
        res = simulate(cell, Trace(t, current), CellState(3.1, np.zeros(2)))
        rest = t >= 305.0
        recomposed = res.v_qst[rest] + res.v_dyn[rest].sum(axis=1)
        assert np.allclose(res.trace.voltage[rest], recomposed, atol=1e-15)

    def test_superposition_of_dynamic_dipole(self):
        cell = make_cell()
        t = np.arange(0.0, 1000.0, 2.0)
        rng = np.random.default_rng(2)
        i1 = rng.normal(0.0, 1.0, t.size)
        i2 = rng.normal(0.0, 1.0, t.size)
        v1 = reconstruct_v_dyn(t, i1, cell.rc_groups)
        v2 = reconstruct_v_dyn(t, i2, cell.rc_groups)
        v12 = reconstruct_v_dyn(t, i1 + i2, cell.rc_groups)
        assert np.allclose(v12, v1 + v2, atol=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double on this platform")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rc_scan_is_as_accurate_as_the_recurrence(self, seed):
        """Against the recurrence in extended precision, on a random cell's
        pulse test (about 11k samples at 4 s), the scan errs at most twice as
        much as the per-sample recurrence (0.40-0.70 times as much measured)."""
        cell = random_cell(np.random.default_rng(seed))
        trace, _ = identification_trace(cell)
        t, i, groups = trace.timestamps, trace.current, cell.rc_groups
        ref = rc_recurrence(t, i, groups, dtype=np.longdouble)
        scan_err = np.max(np.abs(reconstruct_v_dyn(t, i, groups) - ref))
        loop_err = np.max(np.abs(rc_recurrence(t, i, groups) - ref))
        assert scan_err <= 2.0 * loop_err

    def test_substepping_respects_guard(self):
        cell = make_cell(rc=((0.012, 20.0), (0.02, 700.0)))
        profile = constant_profile(1.0, 600.0, 60.0)  # dt far above tau_min/5
        res = simulate(cell, profile, CellState(3.1, np.zeros(2)))
        # Compare with a finely stepped run: sub-stepping must hide the coarse dt.
        fine = constant_profile(1.0, 600.0, 2.0)
        res_fine = simulate(cell, fine, CellState(3.1, np.zeros(2)))
        assert res.v_qst[-1] == pytest.approx(res_fine.v_qst[-1], abs=1e-6)

    def test_matches_running_charge_oracle_bit_for_bit(self):
        # Both ends of the window clamp, rests sit between the pulses and one
        # interval lasts an hour. The profile starts at rest, at a level v0
        # where Q⁻¹(Q(v0)) is not v0 bit for bit: the rest must keep v0.
        cell = make_cell()
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.5, 30.0, 3000))
        t[1500:] += 3600.0
        current = rng.normal(0.0, 3.0, t.size) + np.repeat([-40.0, 0.0, 40.0, 0.0, -5.0], 600)
        current[rng.random(t.size) < 0.2] = 0.0
        current[:5] = 0.0
        v0 = 3.5801418779996874
        assert cell.capacitance.inverse_integral(cell.capacitance.integral_and_value(v0)[0])[0] != v0
        res = simulate(cell, Trace(t, current), CellState(v0, np.array([0.01, -0.005])))
        assert np.all(res.v_qst[:5] == v0)
        want, events = running_charge_vqst(cell, t, current, v0)
        assert {v for _, v in events} == {cell.v_min - 0.05, cell.v_max + 0.05}
        assert res.saturation_events == events
        assert np.array_equal(res.v_qst.view(np.int64), want.view(np.int64))
        total = want + res.v_dyn.sum(axis=1) + cell.resistor.eval(current)
        assert np.array_equal(res.trace.voltage.view(np.int64), total.view(np.int64))

    def test_step_chain_agrees_within_rounding(self):
        # step chains the charge map, simulate inverts the running charge once
        # per sample; they differ by rounding only (3.6e-15 V measured here).
        # The RC columns come from a prefix scan, which adds in another order
        # than step's recurrence: 1.0e-17 and 9.1e-18 V measured here, 3.2e-16
        # and 9.8e-16 of each column's largest |x|.
        cell = make_cell()
        t = np.cumsum(np.random.default_rng(3).uniform(0.5, cell.dt_guard, 400))
        current = np.random.default_rng(4).normal(0.0, 3.0, t.size)
        initial = CellState(3.25, np.array([0.01, -0.005]))
        res = simulate(cell, Trace(t, current), initial)
        rc_bound = 1e-14 * np.max(np.abs(res.v_dyn), axis=0)
        s = initial
        for k, i_k in enumerate(interval_currents(current), start=1):
            s = step(s, cell, float(i_k), float(t[k] - t[k - 1]))
            assert abs(s.v_qst - res.v_qst[k]) <= 1e-14
            assert np.all(np.abs(s.v_dyn_components - res.v_dyn[k]) <= rc_bound)

    def test_saturation_events_collected(self):
        cell = make_cell()
        profile = constant_profile(5.0, 36000.0, 10.0)  # way past full
        res = simulate(cell, profile, CellState(cell.v_max - 0.01, np.zeros(2)))
        assert res.saturation_events
        assert res.v_qst[-1] <= cell.v_max + 0.05 + 1e-12

    def test_deterministic(self):
        cell = make_cell()
        profile = constant_profile(-0.5, 1000.0, 5.0)
        r1 = simulate(cell, profile, CellState(3.3, np.zeros(2)))
        r2 = simulate(cell, profile, CellState(3.3, np.zeros(2)))
        assert np.array_equal(r1.trace.voltage, r2.trace.voltage)


def test_interval_currents_trapezoid_consistency():
    i = np.array([0.0, 2.0, 2.0, 0.0])
    assert np.allclose(interval_currents(i), [1.0, 2.0, 1.0])
