"""Control-plan evaluation for cyclic linear structural equation models.

The package models linear structural equation systems whose path diagrams
may contain directed cycles, verifies their stability, and evaluates or
optimizes the effect of control plans on the mean and variance of a
response variable.  A seeded Monte Carlo equilibrium sampler serves as an
independent oracle for every closed form.
"""

from .control import (
    ControlPlan,
    CovariateComparison,
    OptimalGains,
    PlanEffect,
    PlanSpec,
    PlanStability,
    apply_plan,
    covariate_compare,
    load_plan,
    optimal_b,
    plan_is_stable,
    plan_mean,
    plan_variance,
    resolve_plan,
)
from .effects import (
    EffectSummary,
    MomentSummary,
    RegressionBlocks,
    implied_moments,
    regression_blocks,
    total_effects,
)
from .errors import (
    ControlSetMismatch,
    InputFormatError,
    MissingFixture,
    NonFiniteEntry,
    ResponseNotDescendant,
    SemControlError,
    SingularBlock,
    SingularInstrumentBlock,
    SingularSystem,
    TooFewRows,
    UnstableModel,
    UnstableModelWarning,
    UnstablePlan,
    WeakInstrument,
    WorkerFailed,
    ZeroTotalEffect,
)
from .estimation import (
    IVEstimate,
    iv_estimate,
    iverson_model,
    iverson_moments,
    load_covariance,
    sample_moments,
    tsls_estimate,
)
from .model import (
    PathDiagram,
    StabilityReport,
    StructuralModel,
    VertexPartition,
    check_stability,
    load_model,
    model_hash,
    partition_vertices,
    save_model,
    spectral_radius,
    validate_model,
)
from .simulate import (
    RNG_ALGORITHM,
    Dataset,
    SimulationConfig,
    draw_equilibrium,
    iterate_equilibrium,
    save_run,
    simulate_plan,
)

__version__ = "0.1.0"
