"""Least-squares parameter estimation from an observed equilibrium.

The estimator minimizes J(eta) = || observed - s_eta ||_{L2}^2 over a box
of admissible parameters, where s_eta is the model equilibrium at eta.

The model is constant on the kernel's cells (weights w), so the observation
enters J only through its cell integrals a and c = int obs^2 - sum a_i^2/w_i:
J = ||r||^2 + c with r = sqrt(w) s_eta - a/sqrt(w). Any orthonormal basis
keeps ||r||, so J is formed in the coordinates the kernel's solver works in
(``equilibrium._kernel_resolvent``): the statistic is projected there once
per estimate, and s and G = ds/deta never leave them. One private core
gives J, its gradient 2 G^T r and its Hessian, a Gauss-Newton term
2 G^T G plus the curvature term 2 r^T d2s/deta2, which the solver gives
by one adjoint solve without forming d2s/deta2. ``objective``,
``objective_gradient`` and ``hessian`` are thin wrappers over it.

The estimate is a projected Newton iteration on the box (Bertsekas 1982,
SIAM J. Control Optim.) with J's exact Hessian. It starts at the moment
estimate: at the observed cell means m = a/w, with z = A m for the
kernel's operator A, the equilibrium condition m = theta1(eta) +
theta2(eta) z is affine in eta, and its least-squares solution weighted by
w, clipped into the box, is the reduced-form moment estimator of
linear-in-means peer effects (Bramoulle, Djebbari & Fortin 2009, J.
Econometrics). With one unknown per cell, as in the community game, the
system is square and its solution makes s_eta equal m up to rounding, so
it is J's minimizer whenever it lies in the box; the iteration then stops
at its first evaluation, or after one Newton step where rounding leaves
the projected gradient above GTOL. Each evaluation is one order-2 call
of the resolvent, giving J, its gradient and its Hessian; GTOL and
MAX_EVALUATIONS are constants, not settings. A coordinate at a
bound with the gradient pointing out of the box is active and stays; the
free ones step by -H_FF^-1 grad_F, or by the Gauss-Newton step where H_FF
is not positive definite, halved along the projection arc until J
decreases enough. The last accepted evaluation is certified by the
second-order sufficient condition for bound constraints (Nocedal &
Wright, Numerical Optimization, Thm 12.6) on the iteration's own active
set: the gradient points strictly out of the box at the active
coordinates by their definition, and the Hessian on the free ones must be
positive definite beyond rounding. That is a strict local minimum, under
identifiability the unique one, so nothing runs after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInterior
from .functionspace import PiecewiseConstantFn, cell_integrals
from .game import LQAffine, require_contraction
from .graphon import Graphon
from .equilibrium import _KernelResolvent, _kernel_resolvent, solve_values

# the sufficient-decrease fraction of the Armijo backtracking rule, and the
# relative change of J within which the rule reads J's change off its
# gradients (Hager & Zhang 2005, SIAM J. Optim., approximate Wolfe)
ARMIJO = 1e-4
APPROX_J = 1e-6
# the projected-gradient norm of a converged estimate is at most GTOL; the
# projected Newton iteration spends at most MAX_EVALUATIONS resolvent
# evaluations, each one of order 2, backtracking trials included
GTOL = 1e-9
MAX_EVALUATIONS = 5000


@dataclass
class EstimationResult:
    eta_hat: np.ndarray
    objective: float
    gradient_norm: float
    hessian_min_eig: float
    # always 1; kept because perfbench/bench.py divides by it (ROADMAP item 1)
    starts: int
    iterations_total: int
    converged: bool


@dataclass
class HessianInfo:
    matrix: np.ndarray
    min_eigenvalue: float


def model_equilibrium_fn(g: Graphon, spec: LQAffine, eta) -> PiecewiseConstantFn:
    """Model equilibrium profile at eta as a step function."""
    s, _ = solve_values(g, spec, eta)
    return PiecewiseConstantFn(g.bounds, s)


def _statistic(observed: PiecewiseConstantFn,
               solver: _KernelResolvent) -> tuple[np.ndarray, float]:
    """The observation's sufficient statistic on the solver's cells, in its
    coordinates: (target, offset) with target the coordinates of the cell
    means a / w and offset = c, so that J(eta) = ||s_eta - target||^2 +
    offset with s_eta in the same coordinates."""
    target = cell_integrals(observed, solver.g.bounds) / solver.root_w
    v = observed.values
    # a pairwise sum, not a BLAS dot, so J does not depend on the BLAS
    # thread count
    offset = float((np.diff(observed.breakpoints) * v * v).sum()
                   - target @ target)
    return solver.basis.T @ target, offset


def _j(stat, solved) -> list:
    """[J] from one solve's outputs ``solved`` = (s, z, *derivs) of a
    :func:`_kernel_resolvent`, in its coordinates, plus grad J when they
    hold G = ds/deta and the Hessian H when they also hold the curvature
    function r -> r^T d2s/deta2.

    With r = s - target: J = ||r||^2 + offset (clamped at 0 against
    rounding), grad J = 2 G^T r and H = 2 G^T G + 2 r^T d2s/deta2. H is
    exactly symmetric.
    """
    target, offset = stat
    s, _, *derivs = solved
    r = s - target
    out = [max(float(r @ r) + offset, 0.0)]
    if derivs:
        jac = derivs[0]
        out.append(2.0 * (jac.T @ r))
    if len(derivs) == 2:
        half = jac.T @ jac + derivs[1](r)
        out.append(half + half.T)
    return out


def _interior_j(observed: PiecewiseConstantFn, g: Graphon, spec: LQAffine,
                eta, order: int) -> list:
    """:func:`_j` at eta from one solve of ``order``. The derivatives raise
    :class:`NotInterior` where the equilibrium touches a strategy bound."""
    solver = _kernel_resolvent(g, spec)
    solved = solver(eta, order)
    if order and not spec.strategy_set.is_interior(
            solver.cells(solved[:2])[0]):
        raise NotInterior(
            "equilibrium touches a strategy bound; derivative formulas "
            "are not valid there"
        )
    return _j(_statistic(observed, solver), solved)


def objective(observed: PiecewiseConstantFn, g: Graphon, spec: LQAffine,
              eta) -> float:
    """J(eta): squared L2 distance between the observation and the model
    equilibrium."""
    return _interior_j(observed, g, spec, eta, 0)[0]


def objective_gradient(observed: PiecewiseConstantFn, g: Graphon,
                       spec: LQAffine, eta) -> np.ndarray:
    """Analytic gradient of J, -2 * integral of (observed - s_eta) *
    ds_eta/deta. Valid only at interior equilibria."""
    return _interior_j(observed, g, spec, eta, 1)[1]


def hessian(observed: PiecewiseConstantFn, g: Graphon, spec: LQAffine,
            eta) -> HessianInfo:
    """Analytic Hessian of J and its minimum eigenvalue: a gradient
    outer-product term plus a residual-weighted curvature term, which
    vanishes at zero residual and leaves a positive semidefinite matrix.
    Valid only at interior equilibria."""
    h = _interior_j(observed, g, spec, eta, 2)[2]
    return HessianInfo(matrix=h, min_eigenvalue=float(np.linalg.eigvalsh(h)[0]))


def _newton_step(h, grad_j, jac, free) -> np.ndarray:
    """The projected Newton direction at a point where J has gradient
    ``grad_j``, Hessian ``h`` and residual Jacobian ``jac`` = G:
    -H_FF^-1 grad_F on the ``free`` coordinates and 0 on the others. Where
    H_FF is not positive definite, the Gauss-Newton matrix 2 jac_F^T jac_F
    replaces it, solved by least squares: grad_F lies in its range, so even
    a singular one gives a descent direction."""
    if not free.all():
        step = np.zeros_like(grad_j)
        step[free] = _newton_step(h[np.ix_(free, free)], grad_j[free],
                                  jac[:, free], free[free])
        return step
    try:
        np.linalg.cholesky(h)
        return np.linalg.solve(h, -grad_j)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(2.0 * (jac.T @ jac), -grad_j, rcond=None)[0]


def _decreases(j, grad_j, terms, move, predicted: float) -> bool:
    """Whether a trial point ``move`` away from a point with J = ``j`` and
    gradient ``grad_j``, where :func:`_j` gave ``terms``, lowers J by at
    least ARMIJO times the ``predicted`` (negative) first-order change.
    Where J's change is within APPROX_J * J, rounding can swamp it, and the
    trapezoid estimate (grad_j + grad J at the trial) . move / 2, exact on
    a quadratic, stands in for it."""
    change = terms[0] - j
    if abs(change) <= APPROX_J * j:
        change = 0.5 * float((grad_j + terms[1]) @ move)
    return change <= ARMIJO * predicted


def _certify(h, free) -> tuple[float, bool]:
    """(smallest eigenvalue of the Hessian ``h`` of J, whether the point
    passes the second-order certificate with the Newton loop's ``free``
    coordinates).

    The others are at a bound with the gradient pointing out of the box,
    the coordinates that Thm 12.6's critical cone fixes. The Hessian on the
    q free coordinates must have its smallest eigenvalue above q * eps *
    max |eigenvalue| of that sub-matrix, the rounding level of numpy's
    matrix_rank; an empty free set certifies."""
    full = np.linalg.eigvalsh(h)
    eig = full if free.all() else np.linalg.eigvalsh(h[np.ix_(free, free)])
    floor = eig.size * np.finfo(float).eps * np.abs(eig).max(initial=0.0)
    return float(full[0]), bool(eig.size == 0 or eig[0] > floor)


def estimate(observed: PiecewiseConstantFn, g: Graphon, spec: LQAffine,
             options=None) -> EstimationResult:
    """Minimize J over the parameter box by projected Newton.

    The contraction margin over the box must be positive
    (:class:`NotAContraction` otherwise); it bounds the margin at every
    candidate, so no solve leaves the resolvent's domain. The iteration
    runs from the moment estimate (module docstring) with at most
    MAX_EVALUATIONS resolvent evaluations. ``converged`` is true when its
    projected-gradient norm is at most GTOL and the certificate (module
    docstring) holds; a non-identifiable game, whose Hessian is singular,
    an equilibrium that touches a strategy bound, or an iteration that
    stops above GTOL reports false. ``hessian_min_eig`` is the smallest
    eigenvalue of the full Hessian, NaN where the equilibrium at the
    estimate touches a strategy bound. ``options`` is ignored.
    """
    # ignored but kept: perfbench/bench.py still passes it (ROADMAP item 1)
    require_contraction(spec, g)
    solver = _kernel_resolvent(g, spec)
    return _estimate(_statistic(observed, solver), solver)


def _estimate(stat, solver: _KernelResolvent) -> EstimationResult:
    """:func:`estimate` on the observation's statistic ``stat``
    (:func:`_statistic`) with ``solver`` built for the kernel and game,
    whose box the caller has checked."""
    spec = solver.spec
    lo, hi = spec.xi.lower, spec.xi.upper
    # the moment start, min ||(D1 + z D2) eta - (m - b1 - b2 z)|| at the
    # observed cell means m (the target) and z = A m, all in the solver's
    # coordinates
    target = stat[0]
    b1, d1, b2, d2 = solver.maps
    z = solver.apply(target)
    start = np.linalg.lstsq(d1 + z[:, None] * d2, target - b1 - b2 * z,
                            rcond=None)[0]
    # each pass evaluates J, grad J and H at the trial point by one order-2
    # evaluation. The start is accepted; a later trial is accepted when it
    # gives the Armijo decrease, and otherwise alpha halves along the
    # projection arc clip(eta + alpha * step). The pass that accepts a
    # point with projected gradient at most GTOL, that spends the
    # MAX_EVALUATIONS-th evaluation, or whose next trial rounds to the
    # iterate is the last.
    eta = trial = np.clip(start, lo, hi)
    evaluations, alpha = 0, 1.0
    while True:
        solved_trial = solver(trial, 2)
        evaluations += 1
        terms = _j(stat, solved_trial)
        if evaluations == 1 or _decreases(j, grad_j, terms, trial - eta,
                                          alpha * slope):
            eta, solved, (j, grad_j, h) = trial, solved_trial, terms
            pgnorm = float(np.linalg.norm(eta - np.clip(eta - grad_j, lo,
                                                        hi)))
            # active: at a bound with the gradient pointing out of the box
            free = ~(((eta <= lo) & (grad_j > 0.0))
                     | ((eta >= hi) & (grad_j < 0.0)))
            if pgnorm <= GTOL:
                break
            step = _newton_step(h, grad_j, solved[2], free)
            slope, alpha = float(grad_j @ step), 1.0
        else:
            alpha *= 0.5
        trial = np.clip(eta + alpha * step, lo, hi)
        if evaluations >= MAX_EVALUATIONS or np.array_equal(trial, eta):
            break
    if spec.strategy_set.is_interior(solver.cells(solved[:2])[0]):
        min_eig, certified = _certify(h, free)
    else:
        min_eig, certified = float("nan"), False
    return EstimationResult(
        eta_hat=eta,
        objective=j,
        gradient_norm=pgnorm,
        hessian_min_eig=min_eig,
        starts=1,
        iterations_total=evaluations,
        converged=pgnorm <= GTOL and certified,
    )
