"""Battery cell modeling, pulse-test identification and multi-cell SoC estimation.

The model represents a cell as three series dipoles: a nonlinear capacitor
(quasi-stationary charge storage), a chain of RC groups (relaxation dynamics)
and a nonlinear resistor (instantaneous drop). State of charge is defined by
integrating the static capacitance curve over the quasi-stationary voltage.
"""

from .curves import MonotoneCurve, isotonic_nondecreasing
from .errors import (
    BudgetExceededError,
    CellSocError,
    CellSocWarning,
    ConfigurationError,
    FitConvergenceError,
    FitQualityWarning,
    InvalidInputError,
    InvalidParametersError,
    NonUniformSamplingError,
    NumericalFailureError,
    OutOfRangeWarning,
    ProfileWarning,
    SaturationWarning,
    SchedulingViolationError,
    SchedulingWarning,
    TraceParseError,
    UnusableTraceError,
)
from .estimator import (
    CellFilter,
    EkfConfig,
    EkfState,
    FilterRun,
    correct,
    estimate_soc,
    make_filter,
    predict,
    run_filter,
)
from .identification import (
    FitReport,
    IdentificationConfig,
    IdentificationResult,
    RcFitDiagnostics,
    Segment,
    build_q_curve,
    decompose,
    estimate_capacitance,
    fit_instantaneous,
    fit_rc_groups,
    identify,
    segment_trace,
)
from .model import (
    CellParameters,
    CellState,
    DEFAULT_VQST_GUARD,
    RcGroup,
    SimulationResult,
    Trace,
    charge_map,
    coulomb_count,
    interval_currents,
    reconstruct_v_dyn,
    simulate,
    soc_from_vqst,
    vqst_from_soc,
)
from .multicell import (
    CellSeries,
    Measurement,
    MultiCellEkf,
    SchedulerConfig,
    TickResult,
    max_cells,
)
from .profiles import (
    ProfileSpec,
    build_profile,
    constant_profile,
    identification_profile,
    max_frequency,
    us06_like_profile,
    validation_profile,
)

__version__ = "0.1.0"
