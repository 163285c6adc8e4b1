"""Nash equilibria of graphon games and least-squares estimation of payoff
parameters from observed equilibrium play."""

from .errors import (
    ConfigError,
    DegenerateAggregate,
    EmptyGroup,
    EmptyVector,
    GraphonGameError,
    InfeasibleParameterSet,
    MalformedPartition,
    NoConvergence,
    NoStart,
    NotAContraction,
    NotInterior,
    OutOfDomain,
    ParameterOutOfBox,
    SpectralConditionViolated,
)
from .functionspace import (
    PiecewiseConstantFn,
    cell_integrals,
    integrate_product,
    interpolate_equilibrium,
    l2_distance,
    merge_breakpoints,
    sup_distance,
)
from .graphon import (
    ConstantGraphon,
    Graphon,
    GridGraphon,
    SBMGraphon,
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
    GraphonEquilibrium,
    solve_fixed_point,
    solve_lq_homogeneous,
)
from .sampling import (
    NetworkEquilibrium,
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
    write_quantiles_csv,
    write_records_csv,
)

__version__ = "0.1.0"
