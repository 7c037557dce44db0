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

from .concentration import bernstein_tail, poisson_raw_moment, stirling2
from .conditions import (
    AssumptionConstants,
    BlockedGram,
    ConditionReport,
    PopulationGram,
    PropositionDiagnostics,
    blocked_gram,
    check_assumptions,
    irrepresentable_vector,
    population_gram,
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
    read_design_file,
    run_experiment,
)
from .model import (
    CoefVector,
    DesignMatrix,
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
    kkt_check,
    objective_value,
)
from .working import WorkingProblem, build_working_problem

__all__ = [
    "__version__",
    "AssumptionConstants",
    "BadGeneratorError",
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
    "bernstein_tail",
    "blocked_gram",
    "build_working_problem",
    "check_assumptions",
    "derive_seed",
    "fit",
    "fit_mle",
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
    "read_design_file",
    "run_experiment",
    "score_and_hessian",
    "simulate",
    "stirling2",
]
