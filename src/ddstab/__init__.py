"""Data informativity tests and certified gain synthesis for discrete-time
linear systems, including finite truncations of infinite-dimensional ones.

The package decides, from measured state/input data, whether the data are
informative for system identification and for stabilization, synthesizes
stabilizing feedback gains through a small dense LMI, certifies closed-loop
decay with explicit (M, gamma) constants, and extends the analysis to
structured measurement noise and to finite-length data with a known stable
tail (the sampled heat/ODE cascade being the worked instance).
"""

from .errors import (
    CutoffExceedsTruncation,
    DdstabError,
    DimensionMismatch,
    EmptyData,
    IndexOutOfRange,
    InvalidParams,
    LengthMismatch,
    NumericalBreakdown,
)
from .finitedata import (
    CompatibleFamilyReport,
    Decomposition,
    ProjectedData,
    cascade_decomposition,
    closed_loop_full,
    finite_informative,
    lift_gain,
    modal_decomposition,
    mode_cutoff,
    project_data,
    projected_batch,
    verify_on_compatible_plus,
)
from .informativity import (
    GainResult,
    IdentificationReport,
    NotInformative,
    NotUnique,
    closed_range_inequality_holds,
    gain_inequality_holds,
    identification_informative,
    input_distinguishes_kernel,
    least_squares_gain_norm_growth,
    range_inclusion_diagnostic,
    sample_compatible_systems,
    stabilization_informative,
    unique_system,
)
from .lmi import (
    Infeasible,
    LmiProblem,
    LmiSolution,
    evaluate_block,
    solve_feasibility,
)
from .noise import (
    Incompatible,
    NoiseClassCheck,
    NoiseClassParams,
    NotApplicable,
    RobustGainResult,
    RobustVerificationReport,
    certificate_rate_sweep,
    minimal_noise_constants,
    noise_budget_ok,
    noise_in_class,
    range_breaking_noise,
    robust_decay_rate,
    robust_stabilization,
    verify_robust_gain,
)
from .operators import (
    DEFAULT_TOL,
    DouglasFactor,
    FrameBounds,
    NoFactorization,
    NotCertifiable,
    PowerStabilityCertificate,
    SynthesisOperator,
    build_synthesis,
    construct_certificate,
    douglas_minimal_constant,
    frame_bounds,
    operator_norm,
    pseudo_inverse,
    rank_at_tol,
    spectral_radius,
)
from .systems import (
    REFERENCE_CASCADE_GAIN_PLUS,
    DataBatch,
    HeatCascadeParams,
    LinearSystem,
    assemble_multi_trajectory,
    assemble_single_trajectory,
    counterexample_sequences,
    default_cascade_params,
    heat_cascade_discretize,
    reference_cascade_scenario,
    simulate,
)

__version__ = "0.1.0"
