import warnings

import numpy as np
import pytest

from cellsoc import (
    CellParameters,
    CellState,
    ConfigurationError,
    EkfConfig,
    EkfState,
    InvalidParametersError,
    MonotoneCurve,
    NumericalFailureError,
    OutOfRangeWarning,
    RcGroup,
    Trace,
    constant_profile,
    correct,
    estimate_soc,
    make_filter,
    output_voltage,
    predict,
    run_filter,
    simulate,
    step,
    transition_jacobian,
    vqst_from_soc,
)
from cellsoc import estimator
from cellsoc.estimator import PSD_TOLERANCE
from cellsoc.model import _current_clamp_message, _soc_clamp_message
from helpers import (
    OPENBLAS_ACCEPTED,
    _is_psd,
    assert_run_filter_matches_step_chain,
    make_cell,
    make_resistor,
    near_boundary_draws,
    numpy_correct,
    numpy_predict,
    random_cell,
)


def linear_cell(c=20000.0, tau=50.0, r=0.015, r0=0.03):
    """Constant capacitance keeps the whole system exactly linear."""
    return CellParameters.from_curves(
        2.9, 3.7, MonotoneCurve([2.9, 3.7], [c, c]), (RcGroup(r, tau),), make_resistor(r0)
    )


class TestConfig:
    def test_psd_and_r_validation(self):
        cell = make_cell()
        good = EkfConfig.default(cell)
        assert good.measurement_noise_r > 0
        with pytest.raises(InvalidParametersError):
            EkfConfig(
                process_noise_q=np.array([[1.0, 2.0], [2.0, 1.0], ])[:2, :2] * -1,
                measurement_noise_r=1e-4,
                initial_covariance_p0=np.eye(2),
                initial_state=CellState(3.3, np.zeros(1)),
            )
        with pytest.raises(InvalidParametersError):
            EkfConfig(
                process_noise_q=np.eye(3),
                measurement_noise_r=0.0,
                initial_covariance_p0=np.eye(3),
                initial_state=CellState(3.3, np.zeros(2)),
            )
        with pytest.raises(InvalidParametersError):
            EkfConfig(
                process_noise_q=np.eye(2),  # wrong size for 2 RC components
                measurement_noise_r=1e-4,
                initial_covariance_p0=np.eye(2),
                initial_state=CellState(3.3, np.zeros(2)),
            )

    def test_entries_near_the_float_limit_are_kept(self):
        """Symmetrizing adds Q to its transpose; past about 9e307 that sum
        overflows, so such entries are halved before they are added. A
        difference from the transpose that overflows is asymmetry."""
        big = np.array([[1.7976931348623157e308, 1e300], [1e300, 1e308]])
        cfg = EkfConfig(big, 1e-4, big, CellState(3.3, np.zeros(1)))
        assert np.array_equal(cfg.process_noise_q, big)
        assert np.array_equal(cfg.initial_covariance_p0, big)
        opposite = np.array([[1.0, -1.7976931348623157e308], [1.7976931348623157e308, 1.0]])
        with pytest.raises(InvalidParametersError, match="must be symmetric"):
            EkfConfig(opposite, 1e-4, big, CellState(3.3, np.zeros(1)))


class TestPredict:
    def test_rc_variance_decay_with_zero_process_noise(self):
        cell = make_cell(rc=((0.012, 60.0), (0.02, 700.0)))
        n = cell.n_rc + 1
        cfg = EkfConfig(
            process_noise_q=np.zeros((n, n)),
            measurement_noise_r=1e-4,
            initial_covariance_p0=np.eye(n),
            initial_state=CellState.rest(3.3, cell.n_rc),
        )
        state = make_filter(cfg)
        dt = 5.0
        out = predict(state, cell, 0.0, dt, cfg)
        for i, tau in enumerate(cell.taus, start=1):
            assert out.covariance[i, i] == pytest.approx(np.exp(-2.0 * dt / tau), rel=1e-12)

    def test_constant_capacitance_f00_is_one(self):
        cell = linear_cell()
        f = transition_jacobian(CellState.rest(3.3, 1), cell, 5.0, 2.0)
        assert f[0, 0] == 1.0

    def test_jacobian_matches_finite_differences(self):
        # Interior, non-saturating points: the Jacobian ignores the guard clamp.
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(250):
            cell = random_cell(rng)
            span = cell.v_max - cell.v_min
            grid = cell.capacitance.grid
            inner = grid[(grid > cell.v_min + 0.15 * span) & (grid < cell.v_max - 0.15 * span)]
            seg = rng.integers(0, inner.size - 1)
            u = rng.uniform(0.15, 0.85)
            v = float(inner[seg] + u * (inner[seg + 1] - inner[seg]))
            state = CellState(v, rng.normal(0.0, 0.02, cell.n_rc))
            current = rng.uniform(-5.0, 5.0)
            dt = rng.uniform(0.2, 1.0) * min(cell.dt_guard, 10.0)
            f = transition_jacobian(state, cell, current, dt)
            h = 1e-7
            sp = step(CellState(v + h, state.v_dyn_components.copy()), cell, current, dt)
            sm = step(CellState(v - h, state.v_dyn_components.copy()), cell, current, dt)
            fd = (sp.v_qst - sm.v_qst) / (2.0 * h)
            worst = max(worst, abs(f[0, 0] - fd) / max(abs(fd), 1e-12))
        assert worst <= 1e-6

    def test_substepping_long_horizon(self):
        cell = make_cell(rc=((0.012, 20.0), (0.02, 700.0)))
        cfg = EkfConfig.default(cell, initial_soc=0.5)
        state = make_filter(cfg)
        out = predict(state, cell, -1.0, 60.0, cfg)  # dt >> tau_min/5: sub-stepped
        fine = state
        for _ in range(60):
            fine = predict(fine, cell, -1.0, 1.0, cfg)
        assert out.mean.v_qst == pytest.approx(fine.mean.v_qst, abs=1e-9)

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(1)
        cell = random_cell(rng)
        cfg = EkfConfig.default(cell, initial_soc=0.9)
        state = make_filter(cfg)
        for k in range(200):
            state = predict(state, cell, float(rng.uniform(-5, 5)), 1.0, cfg)
            state = correct(state, cell, 3.3 + 0.01 * np.sin(k), 0.0, cfg)
            p = state.covariance
            assert np.array_equal(p, p.T)
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-10

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_a_step_that_does_not_advance_is_refused(self, dt):
        cell = make_cell()
        cfg = EkfConfig.default(cell)
        with pytest.raises(ConfigurationError, match=f"dt must be positive, got {dt}"):
            predict(make_filter(cfg), cell, 0.0, dt, cfg)

    def test_process_noise_that_overflows_over_dt_is_named(self):
        """Q = 1e308 per second is a valid config; over a 2 s step Q*dt overflows,
        and every predict names that rather than a loss of semidefiniteness."""
        cell = make_cell()
        base = EkfConfig.default(cell)
        cfg = EkfConfig(1e308 * np.eye(3), base.measurement_noise_r,
                        base.initial_covariance_p0, base.initial_state)
        trace = Trace(np.array([0.0, 2.0]), np.zeros(2), np.full(2, 3.3))
        message = r"^process noise Q \* dt is not finite \(dt = 2\.0\)$"
        for run in (lambda: run_filter(cell, trace, cfg),
                    lambda: predict(make_filter(cfg), cell, 0.0, 2.0, cfg),
                    lambda: numpy_predict(make_filter(cfg), cell, 0.0, 2.0, cfg)):
            with pytest.raises(NumericalFailureError, match=message):
                run()
        # Over 1 s, Q*dt is finite and the predicted covariance overflows instead.
        with pytest.raises(NumericalFailureError, match="predicted covariance lost"):
            predict(make_filter(cfg), cell, 0.0, 1.0, cfg)


class TestCorrect:
    def test_zero_innovation_keeps_mean_shrinks_covariance(self):
        cell = linear_cell()
        cfg = EkfConfig.default(cell, initial_soc=0.5)
        state = make_filter(cfg)
        z = output_voltage(state.mean, cell, 0.0)
        out = correct(state, cell, z, 0.0, cfg)
        assert out.mean.v_qst == state.mean.v_qst
        assert np.all(out.mean.v_dyn_components == state.mean.v_dyn_components)
        assert np.trace(out.covariance) < np.trace(state.covariance)

    def test_infinite_noise_is_identity(self):
        cell = linear_cell()
        base = EkfConfig.default(cell, initial_soc=0.5)
        cfg = EkfConfig(
            process_noise_q=base.process_noise_q,
            measurement_noise_r=np.inf,
            initial_covariance_p0=base.initial_covariance_p0,
            initial_state=base.initial_state,
        )
        state = make_filter(cfg)
        out = correct(state, cell, 99.0, 0.0, cfg)
        assert out.mean.v_qst == state.mean.v_qst
        assert np.array_equal(out.covariance, state.covariance)

    def test_huge_noise_near_identity(self):
        cell = linear_cell()
        base = EkfConfig.default(cell, initial_soc=0.5)
        cfg = EkfConfig(
            process_noise_q=base.process_noise_q,
            measurement_noise_r=1e12,
            initial_covariance_p0=base.initial_covariance_p0,
            initial_state=base.initial_state,
        )
        state = make_filter(cfg)
        out = correct(state, cell, 99.0, 0.0, cfg)
        assert abs(out.mean.v_qst - state.mean.v_qst) < 1e-8


def raises_numerical_failure(fn) -> bool:
    try:
        fn()
    except NumericalFailureError:
        return True
    return False


class TestPsdCheck:
    def test_plain_float_check_agrees_with_numpy_cholesky(self):
        """_is_psd(P) == np.linalg.cholesky(P + PSD_TOLERANCE * I) succeeds."""
        verdicts = {True: 0, False: 0}
        for kind, eig, p in near_boundary_draws():
            n = p.shape[0]
            try:
                np.linalg.cholesky(p + PSD_TOLERANCE * np.eye(n))
                expected = True
            except np.linalg.LinAlgError:
                expected = False
            assert _is_psd(p.tolist()) == expected, (kind, eig)
            verdicts[expected] += 1
        assert min(verdicts.values()) >= 900

    def test_config_per_step_and_batch_paths_share_one_verdict(self):
        """One PSD rule: EkfConfig refuses P0 exactly where _is_psd does, and so
        does correct. With r = 1e300 a correction leaves P as it is, so on a
        two-sample trace the numpy oracle's chain (correct, predict, correct)
        raises exactly where run_filter and _filter_series do."""
        taus = ((0.012, 60.0), (0.02, 700.0), (0.01, 2000.0))
        cells = {n: make_cell(rc=taus[:n - 1]) for n in (2, 3, 4)}
        trace = Trace(np.array([0.0, 1.0]), np.zeros(2), np.array([3.3, 3.3]))
        draws = [p for _, _, p in near_boundary_draws()]
        draws += [np.array(p) for p in OPENBLAS_ACCEPTED]
        refused = 0
        for p in draws:
            cell = cells[p.shape[0]]
            base = EkfConfig.default(cell)
            cfg = EkfConfig(base.process_noise_q, 1e300, base.initial_covariance_p0,
                            base.initial_state)
            ekf = EkfState(cfg.initial_state.copy(), p)
            psd = _is_psd(p.tolist())
            try:
                own = EkfConfig(cfg.process_noise_q, 1e300, p, cfg.initial_state)
            except InvalidParametersError:
                own = None
            assert (own is not None) == psd
            assert raises_numerical_failure(lambda: correct(ekf, cell, 3.3, 0.0, cfg)) != psd

            def per_step():
                state, _ = numpy_correct(ekf, cell, 3.3, 0.0, cfg)
                numpy_correct(numpy_predict(state, cell, 0.0, 1.0, cfg), cell, 3.3, 0.0, cfg)

            fails = raises_numerical_failure(per_step)
            refused += fails
            assert raises_numerical_failure(lambda: estimator._filter_series(
                ekf, cell, cfg, trace.voltage, trace.current, np.ones(1), np.zeros(1))) == fails
            if own is not None:
                assert raises_numerical_failure(lambda: run_filter(cell, trace, own)) == fails
        assert 900 <= refused <= 2100


class TestLinearKalmanOracle:
    def test_full_sequence_matches_textbook_filter(self):
        """On a constant-capacitance cell the EKF must equal a plain linear KF."""
        cell = linear_cell(c=20000.0, tau=50.0, r=0.015, r0=0.03)
        dt = 2.0
        n_steps = 400
        rng = np.random.default_rng(9)
        currents = rng.uniform(-3.0, 3.0, n_steps)
        measurements = 3.3 + 0.02 * rng.standard_normal(n_steps)

        q = 1e-8 * np.eye(2)
        r = 1e-4
        p0 = np.diag([0.04, 1e-4])
        x0 = np.array([3.25, 0.0])

        cfg = EkfConfig(q, r, p0, CellState(x0[0], x0[1:].copy()))
        state = make_filter(cfg)

        # Independent textbook filter: x' = F x + B u, z = H x + D u.
        f00 = 1.0
        a_rc = np.exp(-dt / 50.0)
        h = np.array([[1.0, 1.0]])
        x = x0.copy()
        p = p0.copy()
        for k in range(n_steps):
            i_k = float(currents[k])
            f = np.array([[f00, 0.0], [0.0, a_rc]])
            b = np.array([dt / 20000.0, 0.015 * (1.0 - a_rc)])
            x = f @ x + b * i_k
            p = f @ p @ f.T + q * dt
            z_pred = (h @ x).item() + 0.03 * i_k
            s = (h @ p @ h.T).item() + r
            kgain = (p @ h.T / s).ravel()
            x = x + kgain * (float(measurements[k]) - z_pred)
            ikh = np.eye(2) - np.outer(kgain, h.ravel())
            p = ikh @ p @ ikh.T + r * np.outer(kgain, kgain)

            state = predict(state, cell, i_k, dt, cfg)
            state = correct(state, cell, float(measurements[k]), i_k, cfg)

            assert state.mean.v_qst == pytest.approx(x[0], abs=1e-10)
            assert state.mean.v_dyn_components[0] == pytest.approx(x[1], abs=1e-10)
            assert np.allclose(state.covariance, p, atol=1e-10)


class TestFilterRuns:
    def test_perfect_init_noiseless_zero_innovation(self):
        cell = make_cell()
        t = np.arange(0.0, 4000.0, 4.0)
        rng = np.random.default_rng(3)
        current = np.repeat(rng.uniform(-2.0, 2.0, t.size // 8), 8)[: t.size]
        truth = simulate(cell, Trace(t, current), CellState(3.25, np.zeros(2)))
        cfg = EkfConfig(
            process_noise_q=1e-8 * np.eye(3),
            measurement_noise_r=1e-4,
            initial_covariance_p0=np.diag([0.04, 1e-4, 1e-4]),
            initial_state=CellState(3.25, np.zeros(2)),
        )
        run = run_filter(cell, truth.trace, cfg)
        assert np.max(np.abs(run.innovations)) < 1e-12

    def test_estimate_soc_endpoints(self):
        cell = make_cell()
        cfg = EkfConfig.default(cell, initial_soc=0.5)
        state = make_filter(cfg)
        state.mean.v_qst = cell.v_max
        assert estimate_soc(state, cell) == 1.0
        state.mean.v_qst = cell.v_min
        assert estimate_soc(state, cell) == 0.0

    def test_convergence_from_bad_init_constant_discharge(self):
        cell = make_cell()
        profile = constant_profile(-2.0, 3600.0, 4.0)
        start = vqst_from_soc(cell, 1.0)
        truth = simulate(cell, profile, CellState(start, np.zeros(2)))
        cfg = EkfConfig.default(cell, initial_soc=0.8)
        # The filter starts about 20% off ...
        assert abs(estimate_soc(make_filter(cfg), cell) - 1.0) > 0.15
        run = run_filter(cell, truth.trace, cfg)
        from cellsoc import soc_from_vqst

        true_soc = np.array([soc_from_vqst(cell, v) for v in truth.v_qst])
        err = np.abs(run.soc - true_soc)
        # ... and must lock onto the truth well within the hour.
        assert np.max(err[-100:]) < 0.005

    def test_clamps_are_counted_and_warned_once_per_kind(self):
        """Driven at 80 A (past the resistor curve's 50 A) and read at 10 V, so
        every sample clamps both its current and its v_qst."""
        cell = make_cell()
        t = np.arange(0.0, 50.0)
        trace = Trace(t, np.full(t.size, 80.0), np.full(t.size, 10.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = run_filter(cell, trace, EkfConfig.default(cell))
        assert (run.current_clamps, run.soc_clamps) == (50, 50)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (OutOfRangeWarning, _current_clamp_message(cell.resistor), estimator.__file__),
            (OutOfRangeWarning, _soc_clamp_message(cell), estimator.__file__)]

    def test_a_run_that_raises_still_warns_of_its_clamps(self):
        """The first sample, a correction only, clamps its current (80 A) and its
        v_qst (read at 10 V); the second predicts with Q * dt = 1e307 * 100, which
        overflows, so the run raises after those clamps."""
        cell = make_cell()
        base = EkfConfig.default(cell)
        cfg = EkfConfig(1e307 * np.eye(3), base.measurement_noise_r,
                        base.initial_covariance_p0, base.initial_state)
        trace = Trace(np.array([0.0, 100.0]), np.array([80.0, 0.0]), np.array([10.0, 3.3]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalFailureError, match=r"process noise Q \* dt"):
                run_filter(cell, trace, cfg)
        assert [(w.category, str(w.message)) for w in caught] == [
            (OutOfRangeWarning, _current_clamp_message(cell.resistor)),
            (OutOfRangeWarning, _soc_clamp_message(cell))]

    def test_innovation_variance_guard(self):
        cell = linear_cell()
        cfg = EkfConfig.default(cell)
        state = make_filter(cfg)
        state.covariance = np.full((2, 2), -1.0)
        with pytest.raises(NumericalFailureError):
            correct(state, cell, 3.3, 0.0, cfg)


class TestStationaryReuse:
    """run_filter reuses the covariance step while (f0, dt) repeats on a settled P."""

    # (current A, dt s, samples): a discharge; a rest long enough for P to
    # settle; a current step at the same dt, so f0 changes; a short rest at
    # another dt; a rest at the first dt, where P settles again.
    PHASES = ((-2.0, 1.0, 600), (0.0, 1.0, 4000), (1.5, 1.0, 300), (0.0, 2.0, 50),
              (0.0, 1.0, 3000))

    @pytest.fixture(scope="class")
    def case(self):
        # Short time constants let P reach its fixed point within ~2500 samples.
        cell = make_cell(rc=((0.012, 20.0), (0.02, 100.0)))
        current = np.concatenate([np.full(n, i) for i, _, n in self.PHASES] + [[0.0]])
        dt = np.concatenate([np.full(n, h) for _, h, n in self.PHASES])
        t = np.concatenate(([0.0], np.cumsum(dt)))
        start = CellState.rest(vqst_from_soc(cell, 0.9), cell.n_rc)
        truth = simulate(cell, Trace(t, current), start).trace
        noise = 1e-3 * np.random.default_rng(5).standard_normal(t.size)
        return cell, Trace(t, truth.current, truth.voltage + noise)

    @pytest.mark.parametrize("r", [1e-4, np.inf])
    def test_matches_the_step_chain(self, case, r):
        cell, trace = case
        base = EkfConfig.default(cell, initial_soc=0.7)
        cfg = EkfConfig(base.process_noise_q, r, base.initial_covariance_p0, base.initial_state)
        assert_run_filter_matches_step_chain(cell, trace, cfg)

    def test_only_settled_rests_skip_the_covariance_step(self, case):
        cell, trace = case
        cfg = EkfConfig.default(cell, initial_soc=0.7)

        def skipped(end):
            """Samples up to ``end`` that reused the covariance step."""
            return run_filter(cell, trace.slice(0, end), cfg).reused_steps

        ends = np.cumsum([1] + [n for *_, n in self.PHASES])
        counts = [skipped(int(end)) for end in ends[1:]]
        assert counts[0] == 0  # the discharge
        assert counts[1] > 1000  # P settles within the first rest (1562 measured)
        assert counts[3] == counts[1]  # the current step and the 2 s rest
        assert counts[4] - counts[3] > 400  # P settles again (542 measured)
