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
)
from .finitedata import (
    CompatibleFamilyReport,
    Decomposition,
    cascade_decomposition,
    finite_informative,
    lift_gain,
    modal_decomposition,
    mode_cutoff,
    project_data,
    verify_on_compatible_plus,
)
from .informativity import (
    GainResult,
    IdentificationReport,
    NotInformative,
    identification_informative,
    least_squares_gain_norm_growth,
    sample_compatible_systems,
    stabilization_informative,
)
from .lmi import (
    Infeasible,
    LmiProblem,
    LmiSolution,
    evaluate_block,
    solve_feasibility,
)
from .noise import (
    NoiseClassCheck,
    NoiseClassParams,
    NotApplicable,
    RobustGainResult,
    RobustVerificationReport,
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
