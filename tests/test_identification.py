import warnings

import numpy as np
import pytest

from cellsoc import (
    FitConvergenceError,
    ConfigurationError,
    FitQualityWarning,
    IdentificationConfig,
    InvalidParametersError,
    MonotoneCurve,
    RcGroup,
    Trace,
    UnusableTraceError,
    build_q_curve,
    decompose,
    estimate_capacitance,
    fit_instantaneous,
    fit_rc_groups,
    identify,
    reconstruct_v_dyn,
    segment_trace,
    simulate,
)
from cellsoc import identification
from cellsoc.identification import _stage
from cellsoc.model import _MAX_SAMPLES, CellState
from cellsoc.profiles import ProfileSpec, build_profile
from helpers import identification_trace, make_cell, random_cell, relative_rms


CFG = IdentificationConfig()


class TestConfig:
    def test_a_grid_no_array_holds_is_refused(self):
        with pytest.raises(ConfigurationError, match="capacitance_grid_size is more than one"):
            IdentificationConfig(capacitance_grid_size=_MAX_SAMPLES + 1)


class TestSegmentTrace:
    def test_constant_zero_single_rest(self):
        t = np.arange(100.0)
        segments = segment_trace(Trace(t, np.zeros(100), np.full(100, 3.3)), CFG)
        assert [s.kind for s in segments] == ["rest"]
        assert segments[0].start == 0 and segments[0].stop == 100

    def test_pulse_profile_four_segments(self):
        trace, _ = identification_trace(make_cell(), sample_period=4.0)
        segments = segment_trace(trace, CFG)
        kinds = [s.kind for s in segments]
        assert kinds == ["rest", "charge", "rest", "discharge", "rest"]
        # Boundaries are known from the generator: charge = delta_q / 2 A.
        cell = make_cell()
        n_charge = round(cell.delta_q / (2.0 * 4.0))
        assert segments[1].stop - segments[1].start == n_charge

    def test_segments_cover_and_do_not_overlap(self):
        trace, _ = identification_trace(make_cell(), sample_period=4.0)
        segments = segment_trace(trace, CFG)
        assert segments[0].start == 0
        assert segments[-1].stop == len(trace)
        for a, b in zip(segments, segments[1:]):
            assert a.stop == b.start

    def test_degenerate_threshold_warns(self):
        t = np.arange(100.0)
        current = np.where(t < 50, 0.005, -0.005)
        cfg = IdentificationConfig(current_zero_threshold=0.01)
        with pytest.warns(FitQualityWarning):
            segments = segment_trace(Trace(t, current, np.full(100, 3.3)), cfg)
        assert [s.kind for s in segments] == ["rest"]

    def test_no_rest_errors(self):
        t = np.arange(100.0)
        with pytest.raises(UnusableTraceError):
            segment_trace(Trace(t, np.full(100, 2.0), np.full(100, 3.3)), CFG)


class TestFitInstantaneous:
    def test_linear_resistor_slope_recovered(self):
        cell = make_cell(r0=0.05)
        trace, _ = identification_trace(cell, charge_amplitudes=(2.0,), sample_period=4.0)
        curve = fit_instantaneous(trace, CFG)
        assert curve.eval(2.0) / 2.0 == pytest.approx(0.05, rel=0.02)

    def test_zero_resistance_cell(self):
        import warnings as _warnings

        cell = make_cell(r0=1e-9)  # effectively zero but keeps the curve valid
        trace, _ = identification_trace(cell, sample_period=4.0)
        with _warnings.catch_warnings():
            # Point scatter at the numerical-noise floor may break monotonicity.
            _warnings.simplefilter("ignore", FitQualityWarning)
            curve = fit_instantaneous(trace, CFG)
        assert abs(curve.eval(2.0)) < 1e-4

    def test_cubic_resistor_multiple_amplitudes(self):
        cell = make_cell(r0=0.02, cubic=2e-4)
        # Square pulses at +-1, +-2, +-4 A separated by rests.
        dt = 4.0
        blocks = []
        for amp in (1.0, -1.0, 2.0, -2.0, 4.0, -4.0):
            blocks += [np.zeros(75), np.full(150, amp)]
        blocks.append(np.zeros(400))
        current = np.concatenate(blocks)
        t = dt * np.arange(current.size)
        res = simulate(cell, Trace(t, current), CellState(3.2, np.zeros(2)))
        curve = fit_instantaneous(res.trace, CFG)
        for amp in (1.0, 2.0, 4.0, -1.0, -2.0, -4.0):
            truth = cell.resistor.eval(amp)
            assert curve.eval(amp) == pytest.approx(truth, rel=0.02, abs=2e-4)

    def test_passes_through_zero_exactly(self):
        cell = make_cell()
        trace, _ = identification_trace(cell, sample_period=4.0)
        curve = fit_instantaneous(trace, CFG)
        assert curve.eval(0.0) == 0.0

    def test_single_amplitude_degenerate_warns(self):
        cell = make_cell(r0=0.03)
        dt = 4.0
        current = np.concatenate([np.zeros(50), np.full(100, 2.0), np.zeros(300)])
        t = dt * np.arange(current.size)
        res = simulate(cell, Trace(t, current), CellState(3.2, np.zeros(2)))
        with pytest.warns(FitQualityWarning):
            curve = fit_instantaneous(res.trace, CFG)
        assert curve.eval(2.0) / 2.0 == pytest.approx(0.03, rel=0.02)


class TestFitRcGroups:
    @staticmethod
    def decay_trace(amps, taus, v_inf=3.3, duration=6000.0, dt=1.0, noise=0.0, seed=0):
        t = np.arange(0.0, duration, dt)
        v = v_inf + sum(a * np.exp(-t / tau) for a, tau in zip(amps, taus))
        if noise > 0.0:
            v = v + noise * np.random.default_rng(seed).standard_normal(t.size)
        return Trace(t, np.zeros_like(t), v)

    def test_noiseless_two_exponential_recovery(self):
        trace = self.decay_trace([0.030, 0.020], [50.0, 1200.0])
        groups, diag = fit_rc_groups(trace, 2, Trace([0.0, 1e6], [1.0, 1.0]))
        assert diag.taus[0] == pytest.approx(50.0, rel=1e-3)
        assert diag.taus[1] == pytest.approx(1200.0, rel=1e-3)
        assert diag.amplitudes[0] == pytest.approx(0.030, rel=1e-3)
        assert diag.amplitudes[1] == pytest.approx(0.020, rel=1e-3)
        assert diag.v_inf == pytest.approx(3.3, abs=1e-6)

    def test_single_exponential_exact(self):
        trace = self.decay_trace([0.040], [300.0])
        groups, diag = fit_rc_groups(trace, 1, Trace([0.0, 1e6], [2.0, 2.0]))
        assert diag.taus[0] == pytest.approx(300.0, rel=1e-6)
        assert groups[0].r == pytest.approx(0.020, rel=1e-6)

    def test_noise_monte_carlo_tau_within_10_percent(self):
        failures = 0
        for seed in range(100):
            trace = self.decay_trace([0.030, 0.020], [50.0, 1200.0], noise=1e-3, seed=seed)
            try:
                _, diag = fit_rc_groups(trace, 2, Trace([0.0, 1e6], [1.0, 1.0]))
                ok = (
                    abs(diag.taus[0] / 50.0 - 1.0) < 0.10
                    and abs(diag.taus[1] / 1200.0 - 1.0) < 0.10
                )
            except Exception:
                ok = False
            failures += (not ok)
        assert failures == 0, f"{failures} of 100 seeds missed the 10% tolerance"

    def test_tau_collapse_reduces_order(self):
        trace = self.decay_trace([0.040], [300.0])
        with pytest.warns(FitQualityWarning):
            groups, diag = fit_rc_groups(trace, 2, Trace([0.0, 1e6], [1.0, 1.0]))
        assert len(diag.taus) == 1

    def test_step_duration_correction(self):
        # Excitation lasted only one tau: amplitude is (1 - e^-1) of steady state.
        tau, r, i = 400.0, 0.02, 2.0
        a = r * i * (1.0 - np.exp(-1.0))
        trace = self.decay_trace([a], [tau])
        groups, _ = fit_rc_groups(trace, 1, Trace([0.0, tau], [i, i]))
        assert groups[0].r == pytest.approx(r, rel=1e-6)

    def test_too_short_segment_rejected(self):
        trace = self.decay_trace([0.03], [50.0], duration=4.0, dt=1.0)
        with pytest.raises(UnusableTraceError):
            fit_rc_groups(trace, 2, Trace([0.0, 1e6], [1.0, 1.0]))

    def test_resistances_through_sampled_pulse_edges(self):
        # Sampled at 4 s, the pulse edges are trapezoids, so the rectangular
        # pulse formula is off by O(dt/tau); the unit response is not.
        groups = (RcGroup(0.015, 60.0), RcGroup(0.020, 900.0))
        current = np.concatenate([np.zeros(10), np.full(150, 2.0), np.zeros(1500)])
        t = 4.0 * np.arange(current.size)
        voltage = 3.3 + reconstruct_v_dyn(t, current, groups).sum(axis=1)
        rest = 160
        relaxation = Trace(t[rest:], current[rest:], voltage[rest:])
        excitation = Trace(t[:rest + 1], current[:rest + 1])
        fitted, diag = fit_rc_groups(relaxation, 2, excitation)
        assert [g.r for g in fitted] == pytest.approx([g.r for g in groups], rel=1e-6)
        rectangular = diag.amplitudes / (2.0 * (1.0 - np.exp(-600.0 / diag.taus)))
        assert np.all(np.abs(rectangular / [g.r for g in groups] - 1.0) > 1e-3)

    def test_opposite_sign_unit_response_drops_group(self):
        # A long charge then a short discharge: the fast group's unit response
        # is negative, the slow group's still positive.
        trace = self.decay_trace([0.030, 0.020], [50.0, 1200.0])
        current = np.concatenate([np.ones(10000), -np.ones(200)])
        excitation = Trace(np.arange(float(current.size)), current)
        with pytest.warns(FitQualityWarning, match="dropping RC group"):
            groups, diag = fit_rc_groups(trace, 2, excitation)
        assert len(diag.taus) == 2
        assert [g.tau for g in groups] == pytest.approx([1200.0], rel=1e-3)

    @pytest.mark.parametrize("i", [-1.0, 0.0])
    def test_all_groups_dropped_raises(self, i):
        trace = self.decay_trace([0.030, 0.020], [50.0, 1200.0])
        with pytest.warns(FitQualityWarning, match="dropping RC group"):
            with pytest.raises(FitConvergenceError):
                fit_rc_groups(trace, 2, Trace([0.0, 1e6], [i, i]))


class TestDecompose:
    def test_identity_when_no_dynamics(self):
        trace, _ = identification_trace(make_cell(), sample_period=4.0)
        zero_resistor = MonotoneCurve([-50.0, 50.0], [0.0, 0.0])
        v_qst = decompose(trace, [], zero_resistor)
        assert np.array_equal(v_qst, trace.voltage)

    def test_rest_tail_constant(self):
        cell = make_cell()
        trace, res = identification_trace(cell, sample_period=4.0)
        segments = segment_trace(trace, CFG)
        v_qst = decompose(trace, list(cell.rc_groups), cell.resistor)
        rest = [s for s in segments if s.kind == "rest"][1]  # rest after the charge pulse
        tail = v_qst[rest.start:rest.stop]
        assert np.std(tail) < 1e-9

    def test_recovers_generator_v_qst_with_true_parameters(self):
        cell = make_cell()
        trace, res = identification_trace(cell, sample_period=4.0)
        v_qst = decompose(trace, list(cell.rc_groups), cell.resistor)
        assert np.max(np.abs(v_qst - res.v_qst)) < 1e-9

    def test_completeness_by_construction(self):
        cell = make_cell()
        trace, _ = identification_trace(cell, sample_period=4.0)
        v_qst = decompose(trace, list(cell.rc_groups), cell.resistor)
        v_dyn = reconstruct_v_dyn(trace.timestamps, trace.current, cell.rc_groups)
        rebuilt = v_qst + v_dyn.sum(axis=1) + cell.resistor.eval(trace.current)
        assert np.allclose(rebuilt, trace.voltage, atol=1e-12)


class TestBuildQCurve:
    def test_hysteresis_free_branches_coincide(self):
        cell = make_cell()
        trace, res = identification_trace(cell, sample_period=4.0)
        charge, discharge, mean = build_q_curve(
            res.v_qst, trace.current, trace.timestamps, grid_size=96
        )
        assert np.max(np.abs(charge.values - discharge.values)) < 2e-3 * cell.delta_q
        assert np.array_equal(mean.values, 0.5 * (charge.values + discharge.values))

    def test_constant_branch_offset_halves_in_mean(self):
        grid = np.linspace(3.0, 3.5, 50)
        q = 1000.0 * (grid - 3.0)
        charge = MonotoneCurve(grid, q)
        offset = MonotoneCurve(grid, q + 40.0)
        mean_direct = 0.5 * (charge.values + offset.values)
        assert np.allclose(mean_direct - q, 20.0)

    def test_span_matches_generator_delta_q(self):
        cell = make_cell()
        trace, res = identification_trace(cell, sample_period=4.0)
        _, _, mean = build_q_curve(res.v_qst, trace.current, trace.timestamps, grid_size=96)
        span = mean.values[-1] - mean.values[0]
        assert span == pytest.approx(cell.delta_q, rel=0.01)

    def test_non_monotone_noise_repaired_with_warning(self):
        rng = np.random.default_rng(0)
        t = np.arange(0.0, 400.0)
        v = np.concatenate((np.linspace(3.0, 3.2, 200), np.linspace(3.2, 3.0, 200)))
        v = v + 1e-3 * rng.standard_normal(t.size)
        i = np.concatenate((np.full(200, 1.0), np.full(200, -1.0)))
        with pytest.warns(FitQualityWarning):
            build_q_curve(v, i, t, grid_size=32)


class TestEstimateCapacitance:
    def test_linear_q_gives_constant_capacitance(self):
        grid = np.linspace(2.9, 3.6, 100)
        q = MonotoneCurve(grid, 15840.0 * (grid - 2.9) / 0.7)
        cap, v_n = estimate_capacitance(q, 64)
        assert np.allclose(cap.values, 15840.0 / 0.7, rtol=1e-9)

    def test_quadratic_q_gives_linear_capacitance(self):
        grid = np.linspace(0.0, 1.0, 200)
        q = MonotoneCurve(grid, 0.5 * grid**2 + 0.1 * grid)
        cap, v_n = estimate_capacitance(q, 64)
        expected = np.linspace(0.0, 1.0, 64) + 0.1
        assert np.allclose(cap.values, expected, atol=1e-2)
        assert v_n == pytest.approx(1.0, abs=1e-6)  # max slope at the upper end

    def test_gaussian_bump_peak_within_one_cell(self):
        cell = make_cell(center=3.22)
        grid = np.linspace(cell.v_min, cell.v_max, 400)
        q_vals = [cell.capacitance.integrate(cell.v_min, v) for v in grid]
        cap, v_n = estimate_capacitance(MonotoneCurve(grid, q_vals), 96)
        cell_width = (cell.v_max - cell.v_min) / 95
        assert abs(v_n - cell.nominal_voltage_v_n) <= cell_width

    def test_round_trip_with_integral_is_identity(self):
        cell = make_cell()
        n = 96
        grid = np.linspace(cell.v_min, cell.v_max, n)
        q_vals = [cell.capacitance.integrate(cell.v_min, v) for v in grid]
        cap, _ = estimate_capacitance(MonotoneCurve(grid, q_vals), n)
        truth = cell.capacitance.eval(grid)
        assert relative_rms(cap.values[1:-1], truth[1:-1]) < 0.01

    def test_flat_q_rejected(self):
        grid = np.linspace(0.0, 1.0, 50)
        with pytest.raises(Exception):
            estimate_capacitance(MonotoneCurve(grid, np.zeros(50)), 32)


class TestStage:
    def test_notes_are_every_warning_in_order(self):
        def fit(x):
            for k in range(3):
                warnings.warn("same place", FitQualityWarning)
            warnings.warn("elsewhere", FitQualityWarning)
            return 2 * x

        assert _stage("q-curve", fit, 21) == (42, ["same place"] * 3 + ["elsewhere"])

    @pytest.mark.parametrize("error", [UnusableTraceError, FitConvergenceError,
                                       InvalidParametersError, ConfigurationError])
    def test_package_errors_name_their_stage(self, error):
        def fail():
            raise error("the reason")

        with pytest.raises(error, match=r"^\[rc-fit\] the reason$") as info:
            _stage("rc-fit", fail)
        assert type(info.value.__cause__) is error

    def test_other_errors_pass_through(self):
        with pytest.raises(ZeroDivisionError):
            _stage("capacitance", lambda: 1 / 0)


class TestIdentifyRoundTrip:
    def test_noiseless_round_trip(self):
        cell = make_cell()
        trace, _ = identification_trace(cell, charge_amplitudes=(2.0,), sample_period=4.0)
        result = identify(trace, CFG)
        got = result.params

        assert sum(g.r for g in got.rc_groups) == pytest.approx(
            sum(g.r for g in cell.rc_groups), rel=0.05
        )
        for g_est, g_true in zip(got.rc_groups, cell.rc_groups):
            assert g_est.tau == pytest.approx(g_true.tau, rel=0.10)
            assert g_est.r == pytest.approx(g_true.r, rel=0.05)

        common = np.linspace(got.v_min, got.v_max, 96)
        assert relative_rms(got.capacitance.eval(common), cell.capacitance.eval(common)) < 0.03
        cell_width = (got.v_max - got.v_min) / (CFG.capacitance_grid_size - 1)
        assert abs(got.nominal_voltage_v_n - cell.nominal_voltage_v_n) <= cell_width

    def test_noisy_round_trip_doubled_tolerances(self):
        cell = make_cell()
        trace, _ = identification_trace(
            cell, charge_amplitudes=(2.0,), sample_period=4.0, noise_mv=1.0, seed=7
        )
        result = identify(trace, CFG)
        got = result.params
        assert sum(g.r for g in got.rc_groups) == pytest.approx(
            sum(g.r for g in cell.rc_groups), rel=0.10
        )
        for g_est, g_true in zip(got.rc_groups, cell.rc_groups):
            assert g_est.tau == pytest.approx(g_true.tau, rel=0.20)
        common = np.linspace(got.v_min, got.v_max, 96)
        assert relative_rms(got.capacitance.eval(common), cell.capacitance.eval(common)) < 0.06

    def test_no_rest_trace_errors(self):
        t = np.arange(100.0)
        trace = Trace(t, np.full(100, 2.0), np.full(100, 3.3))
        with pytest.raises(UnusableTraceError):
            identify(trace, CFG)

    def test_a_pulse_with_no_rest_after_it_fails_in_rc_fit(self):
        cell = make_cell()
        current = np.concatenate([np.zeros(50), np.full(200, 2.0)])
        t = 4.0 * np.arange(current.size)
        res = simulate(cell, Trace(t, current), CellState(3.2, np.zeros(2)))
        with pytest.raises(UnusableTraceError,
                           match=r"^\[rc-fit\] no rest segment follows a current pulse"):
            identify(res.trace, CFG)

    def test_a_swallowing_threshold_is_a_segmentation_note_not_a_warning(self):
        t = np.arange(100.0)
        current = np.where(t < 50, 0.005, -0.005)
        cfg = IdentificationConfig(current_zero_threshold=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FitQualityWarning)
            segments, notes = _stage("segmentation", segment_trace,
                                     Trace(t, current, np.full(100, 3.3)), cfg)
        assert [s.kind for s in segments] == ["rest"]
        (note,) = notes
        assert note.startswith("current-zero threshold 0.01 A swallows the whole profile")

    def test_tau_collapse_from_default_start_is_refitted(self):
        # From the default start this cell's relaxation fit converges to a
        # degenerate pair (tau 527/527 s); a second start recovers 108/597 s.
        rng = np.random.default_rng(5)
        for _ in range(10):
            cell = random_cell(rng)
        spec = ProfileSpec(kind="identification", sample_period_s=4.0,
                           charge_amplitudes_a=(2.0,), delta_q_c=cell.delta_q,
                           t_empty_s=21600.0, rest1_s=9000.0, rest2_s=9000.0)
        truth = simulate(cell, build_profile(spec, seed=5), CellState.rest(cell.v_min, cell.n_rc))
        got = identify(truth.trace, CFG).params
        assert len(got.rc_groups) == 2
        assert sum(g.r for g in got.rc_groups) == pytest.approx(
            sum(g.r for g in cell.rc_groups), rel=0.05
        )
        for g_est, g_true in zip(got.rc_groups, cell.rc_groups):
            assert g_est.tau == pytest.approx(g_true.tau, rel=0.10)

    def test_report_has_all_stages(self):
        cell = make_cell()
        trace, _ = identification_trace(cell, sample_period=4.0)
        result = identify(trace, CFG)
        stages = [s.stage for s in result.report.stages]
        assert stages == [
            "segmentation",
            "instantaneous-fit",
            "rc-fit",
            "decomposition",
            "q-curve",
            "capacitance",
        ]
        text = result.report.to_text()
        assert "rc-fit" in text and "residual_rms" in text

    def test_the_jump_points_are_found_once(self, monkeypatch):
        """The resistor fit and its spread in the report read one set of jump
        points; the spread is theirs around the fitted curve."""
        found = []
        jump_points = identification._jump_points
        monkeypatch.setattr(identification, "_jump_points",
                            lambda *args: found.append(jump_points(*args)) or found[-1])
        trace, _ = identification_trace(make_cell(), sample_period=4.0)
        result = identify(trace, CFG)
        (points, _), = found
        resistor = result.params.resistor
        spread = np.sqrt(np.mean([(dv - resistor.eval(i)) ** 2
                                  for i, dvs in points.items() for dv in dvs]))
        assert result.report.stages[1].residual_rms == pytest.approx(spread, rel=1e-12)
