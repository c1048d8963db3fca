"""Variance-reduced stochastic compositional proximal optimization toolkit."""

__version__ = "0.1.0"

from .numerics import (
    RngStream,
    central_difference_gradient,
    l2_norm_sq,
    sample_with_replacement,
)
from .oracle import QueryCounter, counted, vrsc_pg_cost
from .problems import (
    CompositionProblem,
    FiniteSumProblem,
    LassoProblem,
    LinQuadProblem,
    PolicyEvalProblem,
    PortfolioProblem,
    gen_gaussian_rewards,
    gen_lasso,
    gen_linquad,
    gen_mdp,
    load_problem,
    save_problem,
)
from .regularizers import L1Penalty, ZeroPenalty, make_regularizer
from .metrics import (
    TraceRecord,
    composite_grad_sq,
    gradient_mapping,
    objective_H,
    queries_to_threshold,
)
from .solvers import (
    DivergedError,
    InvalidConfigError,
    ProblemConstants,
    Snapshot,
    SolveResult,
    VrscpgConfig,
    compute_snapshot,
    estimate_gradient_vt,
    estimate_inner_jacobian,
    estimate_inner_value,
    prox_full_gradient,
    prox_svrg,
    scpg_baseline,
    suggest_params_general,
    suggest_params_strongly_convex,
    theorem1_rho,
    theorem3_condition_holds,
    vrsc_pg,
)

__all__ = [name for name in dir() if not name.startswith("_")]
