"""Nash equilibrium solvers for graphon games.

A finite network game is the graphon game on its network's empirical step
kernel, so both games share one engine and return one record,
:class:`Equilibrium`, built by ``_recorder``. The engine has two cores:

* ``_project``, the projected best-response loop s <- clip(theta1 +
  theta2 * A s), valid whenever the best-response map is a contraction.
  :func:`solve_fixed_point` and ``sampling.solve_network_game`` differ
  only in the operator A they pass, the kernel's or P / N. On a network
  it is the route where a strategy bound binds or conjugate gradients
  (``sampling._interior_cg``) is not certified or not accepted.
* ``_KernelResolvent``, the interior solve s = (I - diag(theta2) A)^{-1}
  theta1, valid where no strategy bound binds, and its derivatives in eta
  by the resolvent identities, one multi-right-hand-side solve per order,
  exact at machine precision; the second derivative is only contracted,
  by one adjoint solve. They are written once on "apply V^{-1}", "apply
  V^{-T}" and "apply A": a kernel's solver passes LU solves with V and V^T
  and a product with its symmetrized cell matrix, or its cached
  eigenbasis's diagonal scalings.

Every closed form on a kernel goes through one solver built once per
(kernel, game), ``_kernel_resolvent``, which checks the spectral condition
at every eta and takes the eigenbasis where theta2 is the same on every
cell. It answers in its own L2-orthonormal coordinates, where the
estimator's objective and its derivatives are plain dot products; cell
values are formed only where a caller asks for them
(``_KernelResolvent.cells``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence
from .game import LQAffine, StrategySet, require_contraction
from .graphon import Graphon

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass
class Equilibrium:
    """Equilibrium of a graphon game or of a finite network game.

    ``strategies`` are the values on the kernel's cells or at the network's
    agents, ``aggregates`` their image under the operator (the kernel's
    operator matrix, or P / N). ``interior`` records whether every value
    keeps a relative distance of 1e-9 from both strategy bounds, the regime
    of the derivative formulas. ``residual`` is the sup-norm defect of the
    projected fixed-point equation. ``certificate`` names the contraction
    check that admitted the game (``"row_sum"``, or ``"spectral"`` as on
    every kernel) and ``contraction_margin`` its margin, 1 minus the bound,
    always positive. ``route`` names the solver (``"cg"`` or
    ``"project"``) and ``iterations`` counts its steps.
    """

    strategies: np.ndarray
    aggregates: np.ndarray
    interior: bool
    iterations: int
    residual: float
    certificate: str
    contraction_margin: float
    route: str


def _recorder(aggregate, th1, th2, strategy_set: StrategySet,
              certificate: str, margin: float):
    """The one builder of an :class:`Equilibrium`: returns
    ``record(s, iterations, route)``, which reads z = aggregate(s), the
    residual |s - clamp(theta1 + theta2 * z)| and the interior flag."""
    lo, hi = strategy_set.lower, strategy_set.upper

    def record(s, iterations: int, route: str) -> Equilibrium:
        z = aggregate(s)
        return Equilibrium(
            strategies=s, aggregates=z, interior=strategy_set.is_interior(s),
            iterations=iterations, residual=float(np.max(np.abs(
                s - np.clip(th1 + th2 * z, lo, hi)))),
            certificate=certificate, contraction_margin=margin, route=route)

    return record


def _project(aggregate, th1, th2, strategy_set: StrategySet, tol: float,
             max_iter: int) -> tuple[np.ndarray, int]:
    """The one projected best-response loop, behind both games: iterates
    s <- clip(th1 + th2 * aggregate(s)) onto ``strategy_set`` from the zero
    profile until the sup-norm change is at most ``tol``, the best response
    that :func:`_recorder`'s residual reads. Returns (s, iterations); raises
    :class:`NoConvergence` after ``max_iter`` iterations."""
    lo, hi = strategy_set.lower, strategy_set.upper
    s = np.zeros(np.shape(th1))
    for it in range(1, max_iter + 1):
        s_new = np.clip(th1 + th2 * aggregate(s), lo, hi)
        delta = float(np.max(np.abs(s_new - s)))
        s = s_new
        if delta <= tol:
            return s, it
    raise NoConvergence(
        f"best-response iteration did not reach tol={tol} in "
        f"{max_iter} iterations"
    )


@dataclass(frozen=True)
class _KernelResolvent:
    """The interior solve on a kernel's cells for one game, built once by
    :func:`_kernel_resolvent`, in the solver's own L2-orthonormal
    coordinates: a cell vector x has coordinates basis^T (root_w * x),
    root_w = sqrt(w), with ``basis`` orthogonal. There the w-weighted inner
    products of the cells are plain dot products. :meth:`cells` maps
    outputs back to the cells.

    ``maps`` are (b1, D1, b2, D2) and ``apply`` is the operator A, in those
    coordinates; ``inverse(theta2)`` gives ("apply V^{-1}", "apply
    V^{-T}"). Each call raises :class:`NotAContraction` where the
    contraction margin at eta is not positive (:func:`require_contraction`).
    """

    g: Graphon
    spec: LQAffine
    basis: np.ndarray
    root_w: np.ndarray
    maps: tuple
    apply: Callable
    inverse: Callable

    def __call__(self, eta, order: int):
        """The resolvent identities at eta, on the solver's route.

        With V = I - diag(theta2) A, the equilibrium is s = V^{-1} theta1,
        theta1 = b1 + D1 eta, and z = A s; D2 multiplies cell by cell and
        may be its one row where every cell has the same. Returns (s, z)
        for ``order`` 0, adds the gradient G (n_cells, n_params) for order
        1 and ``curvature`` for order 2:

            V ds/deta_i = D1_i + D2_i * z,
            V d2s/deta_i deta_j = D2_i * (A ds/deta_j) + D2_j * (A ds/deta_i).

        The second is only contracted: ``curvature(r)`` is r^T d2s/deta2 =
        T + T^T, exactly symmetric, with T = (lam * D2)^T A G and
        lam = V^{-T} r by one solve. A matrix r gives one such matrix per
        column, stacked first.
        """
        eta = np.asarray(eta, dtype=float)
        require_contraction(self.spec, self.g, eta)
        b1, d1, b2, d2 = self.maps
        solve, solve_t = self.inverse(b2 + d2 @ eta)
        s = solve(b1 + d1 @ eta)
        z = self.apply(s)
        if order == 0:
            return s, z
        grad = solve(d1 + d2 * z[:, None])
        if order == 1:
            return s, z, grad
        ag = self.apply(grad)

        def curvature(r):
            t = (d2.T * solve_t(r).T[..., None, :]) @ ag
            return t + t.swapaxes(-1, -2)

        return s, z, grad, curvature

    def cells(self, solved) -> tuple:
        """The leading outputs ``solved`` of a call, (s, z[, gradient[,
        curvature]]), on the cells: one product with the basis, divided by
        root_w; the hessian (n_params, n_params, n_cells) is the curvature
        at each cell's row of basis / root_w."""
        out = self.basis @ np.column_stack(solved[:3]) / self.root_w[:, None]
        cells = [out[:, 0], out[:, 1], out[:, 2:]][:len(solved)]
        if len(solved) == 4:
            at_cells = (self.basis / self.root_w[:, None]).T
            cells.append(np.moveaxis(solved[3](at_cells), 0, -1))
        return tuple(cells)


def _kernel_resolvent(g: Graphon, spec: LQAffine) -> _KernelResolvent:
    """The interior solve on ``g``'s natural partition for one game, built
    once.

    When theta2 is the same on every cell for every eta (b2 constant, each
    column of D2 constant), V = I - t A is diagonal in the kernel's cached
    eigenbasis (:meth:`Graphon.eigen`, A = R^-1 Q diag(lam) Q^T R with
    R = diag(sqrt(w))). The coordinates are Q^T R x: V^{-1} scales by
    1 / (1 - t lam) and A by lam, and b1 and D1 are projected once. Any
    other game is solved by LU on the coordinates R x, where A is the
    symmetric R q R; each ``np.linalg.solve`` factors V or V^T afresh, so
    an order-k call factors k + 1 times.
    """
    b1, d1, b2, d2 = spec.affine_maps(g)
    root_w = np.sqrt(g.pi)
    if (spec.d2 == spec.d2[0]).all() and (spec.b2 == spec.b2[0]).all():
        evals, basis = g.eigen()
        proj = basis.T @ (root_w[:, None] * np.column_stack([b1, d1]))
        maps = proj[:, 0], proj[:, 1:], b2[:1], d2[:1]

        def apply(x):
            return (evals * x.T).T

        def inverse(theta2):
            u = 1.0 / (1.0 - theta2 * evals)
            return (lambda x: (u * x.T).T,) * 2  # V is diagonal here
    else:
        basis = np.eye(root_w.size)
        a = g.q * np.outer(root_w, root_w)
        maps = root_w * b1, root_w[:, None] * d1, b2, d2

        def apply(x):
            return a @ x

        def inverse(theta2):
            v = np.eye(root_w.size) - theta2[:, None] * a
            return (lambda x: np.linalg.solve(v, x),
                    lambda x: np.linalg.solve(v.T, x))

    return _KernelResolvent(g, spec, basis, root_w, maps, apply, inverse)


def solve_fixed_point(g: Graphon, spec: LQAffine, eta,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> Equilibrium:
    """Projected best-response fixed point of a linear-quadratic game.

    Iterates s <- clamp(theta1 + theta2 * (W s)) from the zero profile until
    the sup-norm change is at most ``tol``, with the per-cell heterogeneity
    of :meth:`LQAffine.cell_thetas` (``eta`` must lie in the box). Requires
    a positive contraction margin at ``eta``; under that margin the map is
    a contraction and the unique equilibrium is reached from any start.
    The record's certificate is ``"spectral"``, with that margin, and its
    route ``"project"``.
    """
    th1, th2 = spec.cell_thetas(g, eta)
    margin = require_contraction(spec, g, eta)
    bounds = spec.strategy_set
    a = g.operator_matrix()

    def aggregate(x):
        return a @ x

    record = _recorder(aggregate, th1, th2, bounds, "spectral", margin)
    return record(*_project(aggregate, th1, th2, bounds, tol, max_iter),
                  "project")


# Array-level closed forms on the natural partition, each one solve of a
# _kernel_resolvent built for the call, mapped to the cells. They solve the
# unconstrained (interior) system without box or interiority checks. The
# estimator and the finite-difference checks build the solver once and call
# it directly.

def solve_values(g: Graphon, spec: LQAffine, eta):
    """(strategy values, aggregate values) of the interior equilibrium on
    the kernel's natural partition."""
    solver = _kernel_resolvent(g, spec)
    return solver.cells(solver(eta, 0))


def gradient_values(g: Graphon, spec: LQAffine, eta):
    """(strategy, aggregate, gradient) arrays; gradient has one column per
    parameter coordinate."""
    solver = _kernel_resolvent(g, spec)
    return solver.cells(solver(eta, 1))


def second_derivative_values(g: Graphon, spec: LQAffine, eta):
    """(strategy, aggregate, gradient, hessian) arrays; hessian has shape
    (n_params, n_params, n_cells) and is exactly symmetric in its first two
    axes."""
    solver = _kernel_resolvent(g, spec)
    return solver.cells(solver(eta, 2))
