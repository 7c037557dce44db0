"""Sign-consistent L1-penalized estimation for sparse Poisson regression.

Library layout:

- :mod:`signlasso.model` - Poisson GLM primitives and exact count simulation
- :mod:`signlasso.working` - the quadratic working-response problem
- :mod:`signlasso.solver` - coordinate-descent solver with KKT certification
- :mod:`signlasso.prelim` - preliminary estimators (Newton MLE, oracle mode)
- :mod:`signlasso.conditions` - recovery-condition and event diagnostics
- :mod:`signlasso.concentration` - moment and tail-bound numerics
- :mod:`signlasso.harness` - seeded Monte-Carlo experiments with CSV output
- :mod:`signlasso.schema` - JSON loading and writing driven by the dataclass fields
- :mod:`signlasso.cli` - the ``signlasso`` command
"""

__version__ = "0.1.0"

from .concentration import (
    BernsteinParams,
    PopulationGram,
    active_gram_gap,
    bernstein_tail,
    poisson_raw_moment,
    population_gram,
    stirling2,
)
from .conditions import (
    AssumptionConstants,
    BlockedGram,
    ConditionReport,
    PropositionDiagnostics,
    blocked_gram,
    check_assumptions,
    irrepresentable_vector,
    proposition_diagnostics,
)
from .errors import (
    BadGeneratorError,
    ConfigError,
    DegenerateWeightError,
    EmptySupportError,
    NumericalError,
    RangeError,
    RankDeficientError,
    SignLassoError,
    SingularBlockError,
)
from .harness import (
    DesignSpec,
    ExperimentConfig,
    ExperimentResult,
    ReplicateRecord,
    SummaryRow,
    derive_seed,
    make_design,
    run_experiment,
)
from .model import (
    CoefVector,
    DesignMatrix,
    PoissonSample,
    intensities,
    log_likelihood,
    score_and_hessian,
    simulate,
)
from .prelim import MleFit, fit_mle, oracle_perturbation
from .solver import (
    FitResult,
    KktReport,
    SolverConfig,
    fit,
    gram_form_gradient,
    kkt_check,
    objective_value,
    soft_threshold,
)
from .working import WorkingProblem, build_working_problem

__all__ = [
    "__version__",
    "AssumptionConstants",
    "BadGeneratorError",
    "BernsteinParams",
    "BlockedGram",
    "CoefVector",
    "ConditionReport",
    "ConfigError",
    "DegenerateWeightError",
    "DesignMatrix",
    "DesignSpec",
    "EmptySupportError",
    "ExperimentConfig",
    "ExperimentResult",
    "FitResult",
    "KktReport",
    "MleFit",
    "NumericalError",
    "PoissonSample",
    "PopulationGram",
    "PropositionDiagnostics",
    "RangeError",
    "RankDeficientError",
    "ReplicateRecord",
    "SignLassoError",
    "SingularBlockError",
    "SolverConfig",
    "SummaryRow",
    "WorkingProblem",
    "active_gram_gap",
    "bernstein_tail",
    "blocked_gram",
    "build_working_problem",
    "check_assumptions",
    "derive_seed",
    "fit",
    "fit_mle",
    "gram_form_gradient",
    "intensities",
    "irrepresentable_vector",
    "kkt_check",
    "log_likelihood",
    "make_design",
    "objective_value",
    "oracle_perturbation",
    "poisson_raw_moment",
    "population_gram",
    "proposition_diagnostics",
    "run_experiment",
    "score_and_hessian",
    "simulate",
    "soft_threshold",
    "stirling2",
]
