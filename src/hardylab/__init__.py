"""hardylab: Hardy-space energy wave functions and time-asymmetric evolution.

A numerical toolkit for quantum mechanics with a built-in arrow of time:
prepared states and registered observables are represented by energy wave
functions of opposite Hardy class, time evolution is a semigroup defined for
t >= 0 only, and transition probabilities decay exponentially through the
lower-half-plane poles of the S-matrix.
"""

from .errors import (
    CausalityViolation,
    CsvFormatError,
    EmptyEnsemble,
    GridMismatch,
    GridTooSparse,
    HardyLabError,
    IncompatibleChannels,
    InvalidRate,
    InvalidSchemeLength,
    InvalidSpec,
    MissingTailModel,
    NegativeTime,
    NonAnalyticInput,
    NonCausalInput,
    NonDecayingIntegrand,
    NonIntegrableInput,
    NonPositiveOffset,
    PoleOnContinuationLine,
    SingularityOutsideGrid,
    ToleranceNotMet,
    TruncationErrorExceeded,
    WrongHalfPlane,
)
from .models import (
    AnalyticModel,
    DampedSine,
    HalfPlane,
    RationalSum,
    SimplePole,
    ZERO_MODEL,
    lorentzian_model,
)
from .sampled import (
    SampledComplexFunction,
    TailModel,
    estimate_tail,
    uniform_grid,
)
from .quadrature import (
    Method,
    QuadratureSpec,
    ValueWithError,
    oscillatory_integral,
    pole_fourier_integral,
    pv_integral,
    rational_halfline_fourier,
    rational_line_integral,
)
from .hardy import (
    CallableCausalSignal,
    CausalSignal,
    ComplexExponentialSignal,
    CriterionResult,
    DampedSineSignal,
    DispersionReport,
    causal_transform,
    conjugate_hardy,
    dispersion_residual,
    extend_to_full_line,
    fit_rational_extension,
    hardy_criterion,
    hilbert_transform,
    titchmarsh_continuation,
)
from .states import (
    Channel,
    ChannelFunction,
    DivergenceReport,
    EnergyWaveFunction,
    LorentzianSpec,
    WaveKind,
    conjugate_wave,
    energy_distribution,
    evolve_observable,
    evolve_state,
    lorentzian_norm_integral,
    make_lorentzian_observable,
    make_lorentzian_state,
    retarded_propagator,
    semigroup_divergence_check,
    state_jump,
    zero_like,
)
from .transition import (
    AmplitudeMethod,
    AmplitudeResult,
    ExponentialFit,
    PhaseShift,
    ResonancePole,
    SMatrixModel,
    UnitS,
    amplitude_results_from_csv,
    amplitude_results_to_csv,
    amplitude_results_to_json,
    fit_exponential_rate,
    transition_amplitude,
    transition_probability,
)
from .ensemble import (
    ComparisonReport,
    EventTable,
    LabEventRecord,
    SequentialScheme,
    SimultaneousScheme,
    SurvivalCurve,
    compare_to_theory,
    events_from_csv,
    events_to_csv,
    events_to_json,
    map_to_parameter_time,
    sample_decay_ensemble,
    sample_from_survival,
    survival_curve,
)

__version__ = "0.1.0"
