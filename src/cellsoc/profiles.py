"""Current-profile generation and the spectral bound feeding the cell budget."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidInputError,
    NonUniformSamplingError,
    ProfileWarning,
)
from .model import _MAX_SAMPLES, Trace

# Peak current magnitude (amperes) allowed into the pack on the aggressive
# segment; applied as a symmetric clamp.
DEFAULT_CURRENT_CLAMP = 44.0


@dataclass(frozen=True)
class ProfileSpec:
    """Declarative profile description (CLI / config file front end).

    kind selects the generator; only the fields that generator needs must be
    set. Durations are seconds, amplitudes amperes.
    """

    kind: str
    sample_period_s: float = 1.0
    amplitude_a: float | None = None
    duration_s: float | None = None
    charge_amplitudes_a: tuple[float, ...] | None = None
    delta_q_c: float | None = None
    t_empty_s: float | None = None
    rest1_s: float | None = None
    rest2_s: float | None = None
    expected_tau_max_s: float | None = None
    peak_a: float = DEFAULT_CURRENT_CLAMP
    bandwidth_hz: float = 2.0
    f_low_hz: float = 0.01
    us06_duration_s: float = 600.0
    us06_sample_period_s: float = 0.1

    KINDS = ("identification", "validation", "us06-like", "constant")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown profile kind {self.kind!r}; expected one of {self.KINDS}")
        if not self.sample_period_s > 0.0:
            raise ConfigurationError("sample period must be positive")


def _segments_to_trace(values_per_segment, dts_per_segment) -> Trace:
    """Concatenate piecewise segments (value arrays with per-segment dt) into a Trace.

    The trace starts at t = 0. Each segment's samples sit at the start of
    their interval, so a segment of n samples occupies n * dt seconds.
    """
    times = []
    currents = []
    t = 0.0
    for vals, dt in zip(values_per_segment, dts_per_segment):
        vals = np.asarray(vals, dtype=float)
        if vals.size == 0:
            continue
        times.append(t + dt * np.arange(vals.size))
        currents.append(vals)
        t = t + dt * vals.size
    return Trace(np.concatenate(times), np.concatenate(currents))


def _sample_count(duration: float, period: float) -> int:
    """``round(duration / period)``, refused when no array could hold that many samples."""
    ratio = duration / period if period else math.inf  # amp * dt may underflow to 0
    if not ratio <= _MAX_SAMPLES:
        raise ConfigurationError(
            f"sample count {duration} / {period} is more than one array holds ({_MAX_SAMPLES})"
        )
    return round(ratio)


def constant_profile(amplitude: float, duration: float, sample_period: float) -> Trace:
    """Constant current for ``duration`` seconds."""
    if not (duration > 0.0 and sample_period > 0.0):
        raise ConfigurationError("duration and sample period must be positive")
    n = _sample_count(duration, sample_period)
    if n < 1:
        raise ConfigurationError("duration shorter than one sample period")
    t = sample_period * np.arange(n + 1)
    return Trace(t, np.full(n + 1, float(amplitude)))


def identification_profile(
    charge_amplitudes,
    delta_q: float,
    t_empty: float,
    rest1: float,
    rest2: float,
    sample_period: float,
    expected_tau_max: float | None = None,
) -> Trace:
    """Pulse-test profile: charge pulse, rest, constant-rate discharge, rest.

    One cycle per entry of ``charge_amplitudes``; each cycle moves delta_q
    coulombs in and back out (sampled charge balance is exact, the discharge
    rate is delta_q / t_empty up to rounding t_empty to whole samples). A
    warning is raised if rests are shorter than three times the slowest
    expected relaxation.
    """
    amps = [float(a) for a in np.atleast_1d(charge_amplitudes)]
    if not amps or not all(a > 0.0 for a in amps):
        raise ConfigurationError("charge amplitudes must be positive")
    if not (delta_q > 0.0 and t_empty > 0.0):
        raise ConfigurationError("delta_q and t_empty must be positive")
    if not (rest1 > 0.0 and rest2 > 0.0):
        raise ConfigurationError("rest durations must be positive")
    if not sample_period > 0.0:
        raise ConfigurationError("sample period must be positive")
    if expected_tau_max is not None:
        if not expected_tau_max > 0.0:
            raise ConfigurationError(f"expected_tau_max must be positive, got {expected_tau_max}")
        if min(rest1, rest2) < 3.0 * expected_tau_max:
            warnings.warn(
                f"rest shorter than 3x the slowest expected relaxation ({expected_tau_max} s); "
                "the dynamic contribution may not damp out",
                ProfileWarning,
                stacklevel=2,
            )

    dt = sample_period
    n_rest1 = max(1, _sample_count(rest1, dt))
    n_rest2 = max(1, _sample_count(rest2, dt))
    n_empty = max(1, _sample_count(t_empty, dt))
    # A leading rest sample makes every pulse zero-surrounded, which keeps the
    # trapezoidal charge of a pulse exactly amplitude * samples * dt.
    segments = [np.zeros(1)]
    dts = [dt]
    for amp in amps:
        n_charge = max(1, _sample_count(delta_q, amp * dt))
        moved = amp * n_charge * dt
        discharge_rate = moved / (n_empty * dt)
        segments += [
            np.full(n_charge, amp),
            np.zeros(n_rest1),
            np.full(n_empty, -discharge_rate),
            np.zeros(n_rest2),
        ]
        dts += [dt, dt, dt, dt]
    return _segments_to_trace(segments, dts)


def us06_like_profile(
    duration: float = 600.0,
    sample_period: float = 0.1,
    peak: float = DEFAULT_CURRENT_CLAMP,
    bandwidth: float = 2.0,
    f_low: float = 0.01,
    seed: int | None = 0,
) -> Trace:
    """Synthetic band-limited stand-in for a drive-cycle current.

    Gaussian noise shaped to the [f_low, bandwidth] band, zero mean, scaled to
    the requested peak. Deterministic for a fixed seed.
    """
    if not (duration > 0.0 and sample_period > 0.0):
        raise ConfigurationError("duration and sample period must be positive")
    nyquist = 0.5 / sample_period
    if bandwidth > nyquist:
        raise ConfigurationError(
            f"bandwidth {bandwidth} Hz exceeds the Nyquist rate {nyquist} Hz of the sampling"
        )
    n = _sample_count(duration, sample_period)
    if n < 1:
        raise ConfigurationError("duration shorter than one sample period")
    freqs = np.fft.rfftfreq(n, d=sample_period)
    mask = (freqs >= f_low) & (freqs <= bandwidth)
    # A NaN bound selects no bin either; an empty band would scale zeros by 1/0.
    if not mask.any():
        raise ConfigurationError(
            f"band [{f_low}, {bandwidth}] Hz holds no frequency bin of a {n}-sample cycle"
        )
    rng = np.random.default_rng(seed)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    spectrum[~mask] = 0.0
    signal = np.fft.irfft(spectrum, n)
    signal *= peak / np.max(np.abs(signal))
    t = sample_period * np.arange(n + 1)
    current = np.concatenate((signal, [signal[0]]))
    return Trace(t, current)


def validation_profile(us06_source: Trace, slow_sample_period: float = 1.0) -> Trace:
    """37-hour validation profile.

    Six hours of constant discharge at 0.4 A, twelve hours of rest, six hours
    of constant charge at 0.4 A, twelve hours of rest, then one hour built
    from 6 copies of the source cycle, clamped to ±44 A
    (``DEFAULT_CURRENT_CLAMP``).
    """
    if not slow_sample_period > 0.0:
        raise ConfigurationError("sample period must be positive")
    dt = slow_sample_period
    n6h = _sample_count(21600.0, dt)
    if n6h < 1:
        raise ConfigurationError(f"sample period {dt} s leaves a 6 h phase without a sample")
    n12h = _sample_count(43200.0, dt)
    src_t = us06_source.timestamps
    src_steps = np.diff(src_t)
    src_dt = float(src_steps[0])
    if np.max(np.abs(src_steps - src_dt)) > 1e-9 * src_dt:
        raise NonUniformSamplingError("drive-cycle source must be uniformly sampled")
    src_vals = us06_source.current[:-1]  # last sample duplicates the period start
    fast = np.tile(src_vals, 6)
    clipped = np.count_nonzero(np.abs(fast) > DEFAULT_CURRENT_CLAMP)
    if clipped:
        warnings.warn(
            f"{clipped} drive-cycle samples exceeded {DEFAULT_CURRENT_CLAMP} A and were clamped",
            ProfileWarning,
            stacklevel=2,
        )
    fast = np.clip(fast, -DEFAULT_CURRENT_CLAMP, DEFAULT_CURRENT_CLAMP)
    segments = [
        np.zeros(1),
        np.full(n6h, -0.4),
        np.zeros(n12h),
        np.full(n6h, 0.4),
        np.zeros(n12h - 1),
        fast,
        np.zeros(1),
    ]
    dts = [dt, dt, dt, dt, dt, src_dt, src_dt]
    return _segments_to_trace(segments, dts)


def max_frequency(profile: Trace, energy_fraction: float = 0.999) -> float:
    """Smallest frequency containing the requested fraction of spectral energy.

    Uniform sampling is required; the discrete Fourier magnitude spectrum is
    accumulated from DC upward.
    """
    if not (0.0 < energy_fraction <= 1.0):
        raise InvalidInputError(f"energy fraction must be in (0, 1], got {energy_fraction}")
    t = profile.timestamps
    dts = np.diff(t)
    dt = dts[0]
    if np.max(np.abs(dts - dt)) > 1e-9 * dt:
        raise NonUniformSamplingError("profile must be uniformly sampled; resample first")
    spectrum = np.abs(np.fft.rfft(profile.current)) ** 2
    freqs = np.fft.rfftfreq(profile.current.size, d=dt)
    cumulative = np.cumsum(spectrum)
    total = cumulative[-1]
    if total == 0.0:
        return 0.0
    idx = int(np.searchsorted(cumulative, energy_fraction * total - 1e-15 * total))
    return float(freqs[min(idx, freqs.size - 1)])


def build_profile(spec: ProfileSpec, seed: int | None = 0) -> Trace:
    """Materialize a ProfileSpec into a current trace."""
    if spec.kind == "constant":
        if spec.amplitude_a is None or spec.duration_s is None:
            raise ConfigurationError("constant profile needs amplitude_a and duration_s")
        return constant_profile(spec.amplitude_a, spec.duration_s, spec.sample_period_s)
    if spec.kind == "identification":
        if spec.charge_amplitudes_a is None or spec.delta_q_c is None or spec.t_empty_s is None:
            raise ConfigurationError(
                "identification profile needs charge_amplitudes_a, delta_q_c and t_empty_s"
            )
        if spec.rest1_s is None or spec.rest2_s is None:
            raise ConfigurationError("identification profile needs rest1_s and rest2_s")
        return identification_profile(
            spec.charge_amplitudes_a,
            spec.delta_q_c,
            spec.t_empty_s,
            spec.rest1_s,
            spec.rest2_s,
            spec.sample_period_s,
            expected_tau_max=spec.expected_tau_max_s,
        )
    source = us06_like_profile(
        duration=spec.us06_duration_s,
        sample_period=spec.us06_sample_period_s,
        peak=spec.peak_a,
        bandwidth=spec.bandwidth_hz,
        f_low=spec.f_low_hz,
        seed=seed,
    )
    if spec.kind == "us06-like":
        return source
    return validation_profile(source, slow_sample_period=spec.sample_period_s)
