"""Nash equilibria of graphon games and least-squares estimation of payoff
parameters from observed equilibrium play."""

from .errors import (
    ConfigError,
    DegenerateAggregate,
    EmptyGroup,
    GraphonGameError,
    MalformedPartition,
    NoConvergence,
    NotAContraction,
    NotInterior,
    OutOfDomain,
    ParameterOutOfBox,
)
from .functionspace import (
    PiecewiseConstantFn,
    cell_integrals,
    interpolate_equilibrium,
    l2_distance,
)
from .graphon import (
    ConstantGraphon,
    Graphon,
    GridGraphon,
)
from .game import (
    LQAffine,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    StrategySet,
    contraction_margin,
)
from .equilibrium import (
    Equilibrium,
    solve_fixed_point,
)
from .sampling import (
    SampledNetwork,
    observe,
    read_network,
    sample_network,
    solve_network_game,
    write_network,
)
from .estimator import (
    EstimateOptions,
    EstimationResult,
    HessianInfo,
    estimate,
    hessian,
    model_equilibrium_fn,
    objective,
    objective_gradient,
)
from .diagnostics import (
    IdentifiabilityReport,
    empirical_identifiability_test,
    fd_check,
    homogeneous_identifiability,
    sbm_identifiability_constant,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    SolverOptions,
    derive_run_seed,
    load_config,
    run_experiment,
    summarize_quantiles,
)

__version__ = "0.1.0"
