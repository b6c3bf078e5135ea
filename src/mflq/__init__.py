"""Mean-field linear-quadratic stochastic control on finite horizons.

Subpackages solve the differential/algebraic Riccati pair (`riccati`),
the static steady-state optimization (`static_opt`), Monte Carlo
simulation of the closed loop and its stationary turnpike (`simulate`),
and exponential-turnpike diagnostics (`analysis`); `model` holds the
problem data and assumption checks and `cli` the experiment driver.
"""

from .errors import AssumptionViolation, MflqError, NumericalFailure
from .model import (
    HatCoefficients,
    ProblemData,
    check_mean_system_stabilizability,
    make_problem,
    problem_from_dict,
    validate_assumption_a1,
)
from .riccati import (
    ArePair,
    Feedback,
    FeedbackPath,
    RiccatiPath,
    convergence_profile,
    integrate_finite_horizon,
    integrate_offsets,
    solve_are,
    solve_feedback,
)
from .static_opt import StaticSolution, evaluate_F, solve_static
from .simulate import (
    EnsembleStats,
    RawPaths,
    SimulationConfig,
    brownian_increments,
    propagate_mean,
    run_coupled,
)
from .analysis import (
    DecayFit,
    block_psd_check,
    fit_turnpike_decay,
    integral_turnpike,
    lemma_suite,
    matrix_contraction_check,
    value_convergence,
)

__version__ = "0.1.0"
