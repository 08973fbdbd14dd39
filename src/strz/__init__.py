"""strz: a desk-scale laboratory for the Schrodinger equation with
potentials controlled in mixed space-time norms.

Core pieces:

* exponents   -- exact rational exponent algebra (admissibility, duality,
                 criticality, Holder splittings, cascade parameters)
* spectral    -- periodic-box fields, exact free propagation, L^q norms,
                 band-limited rescaling
* potentials  -- time-dependent potential specs, mixed L^r_t L^s_x norms,
                 greedy small-norm interval partitioning
* solver      -- split-step evolution, Duhamel fixed-point iteration around
                 the free group, partition-and-chain solves
* groundstate -- constrained variational eigenpairs and standing waves
* counterexamples -- window cascades and the pseudoconformal family with
                 divergent Strichartz ratios
* acceptance  -- the certification suite (also: ``strz verify``)
"""
from .errors import (
    CalibrationError,
    CannotPartitionError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    DivergentNormError,
    EmptyConstraintError,
    NonContractionError,
    PartitionError,
    PreconditionError,
    RegimeError,
    SingularityError,
    SnapshotFormatError,
    StrzError,
    SupportEscapeError,
    UnsplittableSliceError,
)
from .exponents import (
    INF,
    Criticality,
    Exponent,
    ExponentPair,
    PotentialClass,
    ScheduleKind,
    ScheduleParams,
    classify_potential,
    dual,
    dual_pair_case_b,
    global_subcritical_params,
    holder_split_case_a,
    is_admissible,
    local_params,
    pseudoconformal_ok,
    scaling_exponent,
)
from .spectral import (
    ComplexField,
    Grid,
    Trajectory,
    dispersive_decay_fit,
    free_propagate,
    gaussian_field,
    lq_norm,
    make_grid,
    rescale_field,
)
from .snapshot import read_snapshot, write_snapshot
from .potentials import (
    PatchedRescaledPotential,
    PseudoconformalPotential,
    Schedule,
    StaticPotential,
    SumPotential,
    Window,
    ZeroPotential,
    analytic_patched_norm,
    analytic_pseudoconformal_norm,
    evaluate,
    make_schedule,
    mixed_norm,
    partition_interval,
    real_profile,
    trajectory_mixed_norm,
)
from .groundstate import (
    GroundPair,
    constraint_value,
    default_weight,
    ground_pair,
    h1_norm_sq,
    standing_wave_potential,
    standing_wave_residual,
)
from .solver import (
    DuhamelResult,
    SolveReport,
    calibrate_tau,
    duhamel_iterate,
    solve_global,
    split_step_evolve,
)
from .counterexamples import (
    CounterexampleFamily,
    RatioSeries,
    build_family,
    pseudoconformal_build,
    pseudoconformal_residual,
    pseudoconformal_solution_norm,
    ratio_series,
    schedule_params_for_growth,
    window_crosscheck,
)

__version__ = "0.1.0"
