"""Exception and warning types shared across the package."""


class CellSocError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CellSocError):
    """An operation received a non-finite or otherwise unusable argument."""


class InvalidParametersError(CellSocError):
    """A domain object violates its own invariants (degenerate curve, bad grid, ...)."""


class ConfigurationError(CellSocError):
    """A configuration value breaks a stated guard (time step, durations, ...)."""


class UnusableTraceError(CellSocError):
    """A measured trace does not contain the structure a pipeline stage needs."""


class FitConvergenceError(CellSocError):
    """An iterative fit failed to converge; the message carries the residual report."""


class NumericalFailureError(CellSocError):
    """Filter algebra broke down (covariance lost definiteness, zero innovation variance)."""


class SchedulingViolationError(CellSocError):
    """A multicell tick arrived out of round-robin order or with non-advancing time."""


class BudgetExceededError(CellSocError):
    """Cell count exceeds the Nyquist budget; the message shows the computation."""


class TraceParseError(CellSocError):
    """A CSV trace file is malformed; the message carries the offending line number."""


class NonUniformSamplingError(CellSocError):
    """Spectrum analysis needs uniform sampling; the input must be resampled first."""


class CellSocWarning(UserWarning):
    """Base class for all package warnings."""


class OutOfRangeWarning(CellSocWarning):
    """A value was evaluated outside its defined range and clamped (or left unclamped
    where the definition does not clamp, e.g. coulomb-counting SoC outside [0, 1])."""


class SaturationWarning(CellSocWarning):
    """The quasi-stationary voltage left its window beyond the guard margin and was
    clamped. No library call emits it: ``simulate`` records such clamps in
    ``SimulationResult.saturation_events``, and the filter clamps without one."""


class FitQualityWarning(CellSocWarning):
    """A fit succeeded but with a caveat (degenerate data, repaired monotonicity,
    collapsed time constants, suspicious residual)."""


class SchedulingWarning(CellSocWarning):
    """A multicell update proceeded on stale data."""


class ProfileWarning(CellSocWarning):
    """A generated profile deviates from best practice (short rests, clamped samples)."""
