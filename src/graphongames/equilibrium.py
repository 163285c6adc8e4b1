"""Nash equilibrium solvers for graphon games.

A finite network game is the graphon game on its network's empirical step
kernel, so both games share one engine of two private cores:

* ``_project``, the projected best-response loop, valid whenever the
  best-response map is a contraction. :func:`solve_fixed_point` and
  ``sampling.solve_network_game`` differ only in the operator they apply.
  On a network it is the route where a strategy bound binds: a certified
  interior network game is first solved by conjugate gradients on the
  sparse edges (``sampling._interior_cg``), and the loop runs when that is
  not certified or not accepted.
* ``_resolvent``, the interior solve s = (I - diag(theta2) A)^{-1} theta1
  on an operator matrix A, valid where no strategy bound binds, with the
  game's affine maps theta1 = b1 + D1 eta, theta2 = b2 + D2 eta read at its
  cells. Derivatives in eta come from resolvent identities on the same
  system, one multi-right-hand-side solve per order, so they are exact at
  machine precision.

Every closed form on a kernel, the estimator's J core included, goes
through one solver built once per (kernel, game), ``_kernel_resolvent``,
which checks the spectral condition at every eta. Where theta2 is the same
on every cell it solves in the kernel's one cached eigenbasis instead of
calling ``_resolvent``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NotAContraction,
    SpectralConditionViolated,
)
from .functionspace import PiecewiseConstantFn
from .game import (
    LQAffine,
    LQHomogeneous,
    ParameterBox,
    StrategySet,
    contraction_margin,
)
from .graphon import Graphon

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


def _project(response, size: int, lo: float, hi: float, tol: float,
             max_iter: int) -> tuple[np.ndarray, int]:
    """The one projected best-response loop, behind both games: iterates
    s <- clip(response(s), lo, hi) from the zero profile until the sup-norm
    change is at most ``tol``. Returns (s, iterations); raises
    :class:`NoConvergence` after ``max_iter`` iterations."""
    s = np.zeros(size)
    for it in range(1, max_iter + 1):
        s_new = np.clip(response(s), lo, hi)
        delta = float(np.max(np.abs(s_new - s)))
        s = s_new
        if delta <= tol:
            return s, it
    raise NoConvergence(
        f"best-response iteration did not reach tol={tol} in "
        f"{max_iter} iterations"
    )


def _resolvent(a: np.ndarray, maps, eta, order: int):
    """The one interior solve behind every closed form.

    ``a`` is an operator matrix (a kernel's on its natural partition, or
    P / N on a network) and ``maps`` = (b1, D1, b2, D2) the game's affine
    maps read at its cells. With V = I - diag(theta2) A the equilibrium is
    s = V^{-1} theta1 and z = A s. Returns (s, z) for ``order`` 0, adds the
    gradient (n_cells, n_params) for order 1 and the hessian (n_params,
    n_params, n_cells) for order 2:

        V ds/deta_i = D1_i + D2_i * z,
        V d2s/deta_i deta_j = D2_i * (A ds/deta_j) + D2_j * (A ds/deta_i),

    each order one multi-right-hand-side solve. Hessian pairs are solved
    once for i <= j and mirrored, so it is exactly symmetric.
    """
    eta = np.asarray(eta, dtype=float)
    b1, d1, b2, d2 = maps
    v = np.eye(a.shape[0]) - (b2 + d2 @ eta)[:, None] * a
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
    hess = np.empty((eta.size, eta.size, a.shape[0]))
    hess[i, j] = hess[j, i] = pairs.T
    return s, z, grad, hess


def _kernel_resolvent(g: Graphon, spec: LQAffine):
    """The interior solve on ``g``'s natural partition for one game, built
    once: returns ``solve(eta, order)`` with :func:`_resolvent`'s outputs.
    Each call raises :class:`SpectralConditionViolated` when
    max |theta2| * lambda_max >= 1.

    When theta2 is the same on every cell for every eta (b2 constant, each
    column of D2 constant), V = I - t A is diagonal in the kernel's cached
    eigenbasis (:meth:`Graphon.eigen`, A = R^-1 Q diag(lam) Q^T R with
    R = diag(sqrt(w))): with y = Q^T R theta1 / (1 - t lam), s = R^-1 Q y
    and z = R^-1 Q (lam y). Both resolvent identities become diagonal
    scalings of right-hand sides projected once, and every order is one
    product with Q. Any other game takes :func:`_resolvent`, one LU
    factorization per call.
    """
    maps = spec.affine_maps(g)
    b1, d1, b2, d2 = maps
    lam = g.lambda_max()

    def check(eta):
        eta = np.asarray(eta, dtype=float)
        coef = float(np.max(np.abs(b2 + d2 @ eta)))
        if coef * lam >= 1.0:
            raise SpectralConditionViolated(
                f"aggregate coefficient {coef} times lambda_max {lam} is >= 1"
            )
        return eta

    if not ((d2 == d2[0]).all() and (b2 == b2[0]).all()):
        a = g.operator_matrix()
        return lambda eta, order: _resolvent(a, maps, check(eta), order)

    evals, q = g.eigen()
    root_w = np.sqrt(g.cell_weights())
    proj = q.T @ (root_w[:, None] * np.column_stack([b1, d1]))
    c = d2[0]

    def solve(eta, order: int):
        eta = check(eta)
        p = eta.size
        u = 1.0 / (1.0 - (b2[0] + c @ eta) * evals)
        y = u * (proj[:, 0] + proj[:, 1:] @ eta)
        cols = [y[:, None], (evals * y)[:, None]]
        if order >= 1:
            cols.append(u[:, None] * (proj[:, 1:] + np.outer(evals * y, c)))
        if order == 2:
            lg = evals[:, None] * cols[2]
            i, j = np.triu_indices(p)
            cols.append(u[:, None] * (c[i] * lg[:, j] + c[j] * lg[:, i]))
        out = (q @ np.hstack(cols)) / root_w[:, None]
        result = [out[:, 0], out[:, 1]]
        if order >= 1:
            result.append(out[:, 2:2 + p])
        if order == 2:
            hess = np.empty((p, p, out.shape[0]))
            hess[i, j] = hess[j, i] = out[:, 2 + p:].T
            result.append(hess)
        return tuple(result)

    return solve


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


def solve_fixed_point(g: Graphon, spec: LQAffine, eta,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> GraphonEquilibrium:
    """Projected best-response fixed point of a linear-quadratic game.

    Iterates s <- clamp(theta1 + theta2 * (W s)) from the zero profile until
    the sup-norm change is at most ``tol``, with the per-cell heterogeneity
    of :meth:`LQAffine.cell_thetas` (``eta`` must lie in the box). Requires
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
    a = g.operator_matrix()
    s, iterations = _project(lambda s: th1 + th2 * (a @ s), a.shape[0],
                             lo, hi, tol, max_iter)
    z = a @ s
    bounds = g.cell_boundaries()
    return GraphonEquilibrium(
        strategy=PiecewiseConstantFn(bounds, s),
        aggregate=PiecewiseConstantFn(bounds, z),
        interior=spec.strategy_set.is_interior(s),
        iterations=iterations,
        residual=float(np.max(np.abs(np.clip(th1 + th2 * z, lo, hi) - s))),
    )


# Array-level closed forms on the natural partition, each one solve of a
# _kernel_resolvent built for the call. They solve the unconstrained
# (interior) system without box or interiority checks. The estimator and
# the finite-difference checks build the solver once and call it directly.

def solve_values(g: Graphon, spec: LQAffine, eta):
    """(strategy values, aggregate values) of the interior equilibrium on
    the kernel's natural partition."""
    return _kernel_resolvent(g, spec)(eta, 0)


def gradient_values(g: Graphon, spec: LQAffine, eta):
    """(strategy, aggregate, gradient) arrays; gradient has one column per
    parameter coordinate."""
    return _kernel_resolvent(g, spec)(eta, 1)


def second_derivative_values(g: Graphon, spec: LQAffine, eta):
    """(strategy, aggregate, gradient, hessian) arrays; hessian has shape
    (n_params, n_params, n_cells) and is exactly symmetric in its first two
    axes."""
    return _kernel_resolvent(g, spec)(eta, 2)
