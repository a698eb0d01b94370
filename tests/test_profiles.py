import numpy as np
import pytest

from cellsoc import (
    ConfigurationError,
    NonUniformSamplingError,
    ProfileWarning,
    ProfileSpec,
    Trace,
    build_profile,
    identification_profile,
    max_frequency,
    us06_like_profile,
    validation_profile,
)


def trapz_charge(trace: Trace) -> float:
    i, t = trace.current, trace.timestamps
    return float(np.sum(0.5 * (i[1:] + i[:-1]) * np.diff(t)))  # trapezoid rule


class TestIdentificationProfile:
    def test_discharge_rate_matches_delta_q_over_t_empty(self):
        # 2.4 Ah emptied over 6 h is a 0.4 A discharge.
        p = identification_profile(
            [2.0], delta_q=2.4 * 3600.0, t_empty=6 * 3600.0, rest1=3600.0, rest2=3600.0,
            sample_period=1.0,
        )
        rates = np.unique(p.current[p.current < 0.0])
        assert rates.size == 1
        assert rates[0] == pytest.approx(-0.4, abs=1e-12)

    def test_segment_structure_and_amplitudes(self):
        p = identification_profile(
            [1.0, 3.0], delta_q=3600.0, t_empty=3600.0, rest1=600.0, rest2=600.0,
            sample_period=1.0,
        )
        assert set(np.round(p.current[p.current > 0.0], 9)) == {1.0, 3.0}
        # charge durations: delta_q / amplitude
        assert np.count_nonzero(p.current == 1.0) == 3600
        assert np.count_nonzero(p.current == 3.0) == 1200

    def test_cycle_charge_balance(self):
        p = identification_profile(
            [2.0], delta_q=8640.0, t_empty=21600.0, rest1=1800.0, rest2=1800.0,
            sample_period=4.0,
        )
        assert abs(trapz_charge(p)) < 1e-9

    def test_cycled_profile_balance(self):
        p = identification_profile(
            [1.0, 2.0, 4.0], delta_q=5000.0, t_empty=7200.0, rest1=1200.0, rest2=1200.0,
            sample_period=2.0,
        )
        assert abs(trapz_charge(p)) < 1e-9

    def test_zero_rest_rejected(self):
        with pytest.raises(ConfigurationError):
            identification_profile([2.0], 3600.0, 3600.0, rest1=0.0, rest2=600.0,
                                   sample_period=1.0)

    def test_short_rest_warns(self):
        with pytest.warns(ProfileWarning):
            identification_profile([2.0], 3600.0, 3600.0, rest1=600.0, rest2=600.0,
                                   sample_period=1.0, expected_tau_max=500.0)

    @pytest.mark.parametrize("tau", [-500.0, 0.0, float("nan")])
    def test_non_positive_expected_tau_max_rejected(self, tau):
        with pytest.raises(ConfigurationError, match="expected_tau_max must be positive"):
            identification_profile([2.0], 3600.0, 3600.0, rest1=600.0, rest2=600.0,
                                   sample_period=1.0, expected_tau_max=tau)


class TestValidationProfile:
    def test_duration_about_37_hours(self):
        src = us06_like_profile(duration=600.0, sample_period=0.5, bandwidth=0.8, seed=1)
        p = validation_profile(src)
        assert abs(p.timestamps[-1] - 37.0 * 3600.0) <= 1.0

    def test_clamped_at_44_amps(self):
        src = us06_like_profile(duration=600.0, sample_period=0.5, bandwidth=0.8, peak=44.0, seed=1)
        scaled = Trace(src.timestamps, src.current * 1.5)
        with pytest.warns(ProfileWarning):
            p = validation_profile(scaled)
        assert np.max(np.abs(p.current)) <= 44.0

    def test_clamping_preserves_sign(self):
        src = us06_like_profile(duration=600.0, sample_period=0.5, bandwidth=0.8, seed=3)
        scaled = Trace(src.timestamps, src.current * 2.0)
        with pytest.warns(ProfileWarning):
            p = validation_profile(scaled)
        fast = p.current[np.abs(p.current) > 0.4]
        src6 = np.tile(scaled.current[:-1], 6)
        assert np.all(np.sign(fast[np.abs(fast) == 44.0]) != 0)
        assert np.all(np.sign(p.current[-src6.size - 1:-1]) == np.sign(src6))

    def test_first_36_hours_net_charge_zero(self):
        src = us06_like_profile(duration=600.0, sample_period=0.5, bandwidth=0.8, seed=1)
        p = validation_profile(src)
        cutoff = int(np.searchsorted(p.timestamps, 36.0 * 3600.0 - 0.5))
        head = Trace(p.timestamps[:cutoff], p.current[:cutoff])
        assert abs(trapz_charge(head)) < 1e-9

    def test_structure_amplitudes(self):
        src = us06_like_profile(duration=600.0, sample_period=0.5, bandwidth=0.8, seed=1)
        p = validation_profile(src)
        hours = p.timestamps / 3600.0
        assert np.all(p.current[(hours > 0.01) & (hours < 5.99)] == -0.4)
        assert np.all(p.current[(hours > 6.01) & (hours < 17.99)] == 0.0)
        assert np.all(p.current[(hours > 18.01) & (hours < 23.99)] == 0.4)

    @pytest.mark.parametrize("period", [43200.0, 50000.0, 86401.0, 1e300])
    def test_period_that_leaves_a_6_hour_phase_empty_rejected(self, period):
        src = us06_like_profile(duration=600.0, sample_period=0.5, bandwidth=0.8, seed=1)
        with pytest.raises(ConfigurationError, match="leaves a 6 h phase without a sample"):
            validation_profile(src, slow_sample_period=period)
        # Just below, each 6 h phase keeps one sample.
        p = validation_profile(src, slow_sample_period=43199.0)
        assert np.count_nonzero(p.current == -0.4) == np.count_nonzero(p.current == 0.4) == 1


class TestUs06Standin:
    def test_peak_and_zero_mean(self):
        p = us06_like_profile(duration=600.0, sample_period=0.1, peak=44.0, seed=7)
        assert np.max(np.abs(p.current)) == pytest.approx(44.0)
        assert abs(np.mean(p.current[:-1])) < 1e-9

    def test_band_limited_to_2_hz(self):
        p = us06_like_profile(duration=600.0, sample_period=0.1, bandwidth=2.0, seed=7)
        assert max_frequency(p, 0.999) <= 2.0

    def test_deterministic_for_seed(self):
        a = us06_like_profile(seed=42)
        b = us06_like_profile(seed=42)
        assert np.array_equal(a.current, b.current)

    def test_bandwidth_above_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            us06_like_profile(sample_period=1.0, bandwidth=2.0)

    @pytest.mark.parametrize("f_low,bandwidth", [
        (1.5, 1.0), (0.001, 0.001), (float("nan"), 2.0), (0.01, float("nan"))])
    def test_band_without_a_bin_rejected(self, f_low, bandwidth):
        """Refused before the FFT: no all-zero signal is scaled by 1 / 0."""
        with pytest.raises(ConfigurationError, match="holds no frequency bin"):
            us06_like_profile(duration=600.0, sample_period=0.1, f_low=f_low,
                              bandwidth=bandwidth)


class TestMaxFrequency:
    def test_pure_sinusoid_within_one_bin(self):
        dt = 0.05
        t = dt * np.arange(4000)
        trace = Trace(t, np.sin(2 * np.pi * 1.0 * t))
        f = max_frequency(trace, 0.999)
        bin_width = 1.0 / (t.size * dt)
        assert abs(f - 1.0) <= bin_width

    def test_constant_current_is_dc(self):
        trace = Trace(np.arange(100.0), np.full(100, 3.3))
        assert max_frequency(trace) == 0.0

    def test_monotone_in_energy_fraction(self):
        p = us06_like_profile(duration=600.0, sample_period=0.1, seed=5)
        fractions = [0.5, 0.9, 0.99, 0.999]
        freqs = [max_frequency(p, f) for f in fractions]
        assert all(a <= b for a, b in zip(freqs, freqs[1:]))

    def test_non_uniform_sampling_rejected(self):
        t = np.array([0.0, 1.0, 3.0, 4.0])
        with pytest.raises(NonUniformSamplingError):
            max_frequency(Trace(t, np.zeros(4)))


class TestProfileSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfileSpec(kind="bogus")

    def test_build_constant(self):
        spec = ProfileSpec(kind="constant", amplitude_a=-0.4, duration_s=100.0,
                           sample_period_s=1.0)
        p = build_profile(spec)
        assert np.all(p.current == -0.4)
        assert p.timestamps[-1] == 100.0

    def test_build_validation_duration(self):
        spec = ProfileSpec(kind="validation", sample_period_s=10.0,
                           us06_sample_period_s=0.5, bandwidth_hz=0.8)
        p = build_profile(spec, seed=3)
        assert abs(p.timestamps[-1] - 37.0 * 3600.0) <= 10.0

    def test_build_drive_cycle_kinds_are_the_direct_calls(self):
        """Both drive-cycle kinds pass every spec field to the generators, bit for bit."""
        fields = dict(sample_period_s=7.0, peak_a=30.0, bandwidth_hz=0.7, f_low_hz=0.02,
                      us06_duration_s=300.0, us06_sample_period_s=0.4)
        source = us06_like_profile(duration=300.0, sample_period=0.4, peak=30.0,
                                   bandwidth=0.7, f_low=0.02, seed=9)
        for kind, want in (("us06-like", source),
                           ("validation", validation_profile(source, slow_sample_period=7.0))):
            got = build_profile(ProfileSpec(kind=kind, **fields), seed=9)
            for a, b in ((got.timestamps, want.timestamps), (got.current, want.current)):
                assert a.tobytes() == b.tobytes()

    def test_build_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            build_profile(ProfileSpec(kind="constant"))
