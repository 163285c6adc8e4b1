"""Nash equilibrium solvers for graphon games.

Two routes are provided for every linear-quadratic instance and must agree:

* a generic projected best-response fixed-point iteration, valid whenever
  the best-response map is a contraction, and
* the interior resolvent solve on the kernel's natural partition, valid in
  the regime where no strategy bound binds.

Every interior closed form (``solve_values``, ``gradient_values``,
``second_derivative_values``, ``solve_lq_sbm``, ``solve_lq_homogeneous``)
is a thin call to one private core, ``_resolvent``. It reads the game's
affine maps theta1 = b1 + D1 eta, theta2 = b2 + D2 eta
(:meth:`GameSpec.affine_maps`) and solves the Bonacich-type system
s = (I - diag(theta2) A)^{-1} theta1. First and second derivatives in the
unknown parameters come from resolvent identities on the same system (one
multi-right-hand-side solve per order), not truncated series, so they are
exact at machine precision. They are returned as per-cell arrays only; the
estimator builds J, its gradient and its Hessian from those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NotAContraction,
    SingularSystem,
    SpectralConditionViolated,
)
from .functionspace import PiecewiseConstantFn
from .game import (
    GameSpec,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    StrategySet,
    contraction_margin,
)
from .graphon import Graphon, SBMGraphon

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass
class GraphonEquilibrium:
    """Equilibrium of a graphon game.

    ``strategy`` is the equilibrium profile, ``aggregate`` its image under
    the graphon operator. ``interior`` records whether every strategy value
    keeps a relative distance of 1e-9 from both strategy bounds; derivative
    formulas are only valid in that regime. ``residual`` is the sup-norm
    defect of the fixed-point equation at the returned profile.
    """

    strategy: PiecewiseConstantFn
    aggregate: PiecewiseConstantFn
    interior: bool
    iterations: int
    residual: float


@dataclass
class BlockEquilibrium:
    """Equilibrium of a community game, one value per community."""

    values: np.ndarray
    aggregates: np.ndarray


def _resolvent(g: Graphon, spec: GameSpec, eta, order: int):
    """The one interior solve behind every closed form.

    On ``g``'s natural partition (operator matrix A) with the game's affine
    maps theta1 = b1 + D1 eta and theta2 = b2 + D2 eta, the equilibrium is
    s = V^{-1} theta1 with V = I - diag(theta2) A, and z = A s. Returns
    (s, z) for ``order`` 0, adds the gradient (n_cells, n_params) for order
    1 and the hessian (n_params, n_params, n_cells) for order 2:

        V ds/deta_i = D1_i + D2_i * z,
        V d2s/deta_i deta_j = D2_i * (A ds/deta_j) + D2_j * (A ds/deta_i),

    each order one multi-right-hand-side solve. Hessian pairs are solved
    once for i <= j and mirrored, so it is exactly symmetric. Raises
    :class:`SpectralConditionViolated` when max |theta2| * lambda_max >= 1.
    """
    eta = np.asarray(eta, dtype=float)
    b1, d1, b2, d2 = spec.affine_maps(g)
    theta2 = b2 + d2 @ eta
    coef, lam = float(np.max(np.abs(theta2))), g.lambda_max()
    if coef * lam >= 1.0:
        raise SpectralConditionViolated(
            f"aggregate coefficient {coef} times lambda_max {lam} is >= 1"
        )
    a = g.operator_matrix()
    v = np.eye(a.shape[0]) - theta2[:, None] * a
    try:
        s = np.linalg.solve(v, b1 + d1 @ eta)
        z = a @ s
        if order == 0:
            return s, z
        grad = np.linalg.solve(v, d1 + d2 * z[:, None])
        if order == 1:
            return s, z, grad
        ag = a @ grad
        i, j = np.triu_indices(eta.size)
        pairs = np.linalg.solve(v, d2[:, i] * ag[:, j] + d2[:, j] * ag[:, i])
    except np.linalg.LinAlgError as exc:  # unreachable under the spectral check
        raise SingularSystem(str(exc)) from exc
    hess = np.empty((eta.size, eta.size, a.shape[0]))
    hess[i, j] = hess[j, i] = pairs.T
    return s, z, grad, hess


def solve_lq_sbm(q, pi, theta1: float, eta) -> BlockEquilibrium:
    """Interior equilibrium of the community game by a dense K x K solve:
    values = theta1 * (I - diag(eta) Q diag(pi))^{-1} 1. The strategy set
    and parameter box play no part in the interior solve."""
    k = np.asarray(pi).size
    spec = LQSBM(theta1, StrategySet(0.0, 1.0),
                 ParameterBox(np.zeros(k), np.ones(k)))
    values, aggregates = solve_values(SBMGraphon(q, pi), spec, eta)
    return BlockEquilibrium(values=values, aggregates=aggregates)


def solve_lq_homogeneous(g: Graphon, eta,
                         strategy_set: StrategySet | None = None) -> GraphonEquilibrium:
    """Interior equilibrium of the homogeneous game by a direct linear solve
    on the kernel's natural partition.

    The profile is the resolvent image (I - eta2 W)^{-1} eta1 * 1, the
    scaled Bonacich centrality of each agent position. Intended for interior
    regimes; pass ``strategy_set`` to have the interior flag and residual
    checked against actual bounds.
    """
    eta = np.asarray(eta, dtype=float)
    spec = LQHomogeneous(StrategySet(0.0, 1.0),
                         ParameterBox(np.zeros(2), np.ones(2)))
    s, z = solve_values(g, spec, eta)
    bounds = g.cell_boundaries()
    target = eta[0] + eta[1] * z
    if strategy_set is not None:
        interior = strategy_set.is_interior(s)
        residual = float(np.max(np.abs(s - strategy_set.clamp(target))))
    else:
        interior = True
        residual = float(np.max(np.abs(s - target)))
    return GraphonEquilibrium(
        strategy=PiecewiseConstantFn(bounds, s),
        aggregate=PiecewiseConstantFn(bounds, z),
        interior=interior,
        iterations=0,
        residual=residual,
    )


def solve_best_response(g: Graphon, br, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER,
                        strategy_set: StrategySet | None = None) -> GraphonEquilibrium:
    """Generic best-response iteration on the kernel's natural partition.

    ``br(z)`` maps the per-cell aggregate array to the per-cell best
    responses. The caller is responsible for supplying a contractive map;
    the iteration starts from the zero profile and stops when the sup-norm
    change drops below ``tol``.
    """
    bounds = g.cell_boundaries()
    a = g.operator_matrix()
    s = np.zeros(a.shape[0])
    for it in range(1, max_iter + 1):
        s_new = np.asarray(br(a @ s), dtype=float)
        delta = float(np.max(np.abs(s_new - s)))
        s = s_new
        if delta <= tol:
            break
    else:
        raise NoConvergence(
            f"best-response iteration did not reach tol={tol} in "
            f"{max_iter} iterations"
        )
    z = a @ s
    residual = float(np.max(np.abs(np.asarray(br(z), dtype=float) - s)))
    interior = strategy_set.is_interior(s) if strategy_set is not None else True
    return GraphonEquilibrium(
        strategy=PiecewiseConstantFn(bounds, s),
        aggregate=PiecewiseConstantFn(bounds, z),
        interior=interior,
        iterations=it,
        residual=residual,
    )


def solve_fixed_point(g: Graphon, spec: GameSpec, eta,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> GraphonEquilibrium:
    """Projected best-response fixed point of a linear-quadratic game.

    Iterates s <- clamp(theta1 + theta2 * (W s)) from the zero profile until
    the sup-norm change is at most ``tol``, with the per-cell heterogeneity
    of :meth:`GameSpec.cell_thetas` (``eta`` must lie in the box). Requires
    a positive contraction margin at ``eta``; under that margin the map is
    a contraction and the unique equilibrium is reached from any start.
    """
    th1, th2 = spec.cell_thetas(g, eta)
    margin = contraction_margin(spec, g, eta=eta)
    if margin <= 0.0:
        raise NotAContraction(
            f"contraction margin {margin} is not positive at eta={np.asarray(eta).tolist()}"
        )
    lo, hi = spec.strategy_set.lower, spec.strategy_set.upper
    return solve_best_response(
        g, lambda z: np.clip(th1 + th2 * z, lo, hi), tol=tol,
        max_iter=max_iter, strategy_set=spec.strategy_set,
    )


# Array-level closed forms on the natural partition, all thin calls to
# _resolvent. These are the workhorses behind the estimator and the
# finite-difference checks: they solve the unconstrained (interior) system
# without box or interiority checks; the estimator's J core adds the latter.

def solve_values(g: Graphon, spec: GameSpec, eta):
    """(strategy values, aggregate values) of the interior equilibrium on
    the kernel's natural partition."""
    return _resolvent(g, spec, eta, 0)


def gradient_values(g: Graphon, spec: GameSpec, eta):
    """(strategy, aggregate, gradient) arrays; gradient has one column per
    parameter coordinate."""
    return _resolvent(g, spec, eta, 1)


def second_derivative_values(g: Graphon, spec: GameSpec, eta):
    """(strategy, aggregate, gradient, hessian) arrays; hessian has shape
    (n_params, n_params, n_cells) and is exactly symmetric in its first two
    axes."""
    return _resolvent(g, spec, eta, 2)
