"""Least-squares parameter estimation from an observed equilibrium.

The estimator minimizes J(eta) = || observed - s_eta ||_{L2}^2 over a box
of admissible parameters, where s_eta is the model equilibrium at eta.

The model is constant on the kernel's cells (weights w), so the observation
enters J only through its cell integrals a and c = int obs^2 - sum a_i^2/w_i:
J = ||r||^2 + c with r = sqrt(w) s_eta - a/sqrt(w). One private core reads
that statistic and the resolvent arrays s, G = ds/deta and d2s/deta2, and
gives J, its gradient 2 (sqrt(w) G)^T r and its Hessian, a Gauss-Newton
term 2 (sqrt(w) G)^T (sqrt(w) G) plus the curvature term
2 sum_k sqrt(w_k) r_k d2s_k. ``objective``, ``objective_gradient`` and
``hessian`` are thin wrappers over it.

The estimate is one trust-region reflective bounded least-squares solve of
||r||^2 from the box center with the exact Jacobian sqrt(w) G. It is
certified by the second-order sufficient condition for bound constraints
(Nocedal & Wright, Numerical Optimization, Thm 12.6): the gradient points
strictly out of the box at the active coordinates, and the Hessian on the
free ones is positive definite beyond rounding. That is a strict local
minimum, under identifiability the unique one, so nothing runs after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import InfeasibleParameterSet, NoStart, NotInterior
from .functionspace import PiecewiseConstantFn, cell_integrals, integrate_product
from .game import LQAffine, contraction_margin
from .graphon import Graphon
from .equilibrium import _kernel_resolvent, solve_values

# scipy's xtol, ftol and gtol: the solve runs to the rounding floor or to
# max_iter; EstimateOptions.gtol and the certificate decide convergence.
LSQ_TOL = 1e-15


@dataclass
class EstimateOptions:
    """Optimizer knobs. Defaults keep estimation deterministic and well
    inside the resolvent's domain. ``max_iter`` caps the residual
    evaluations of the trust-region reflective solve."""

    gtol: float = 1e-9
    max_iter: int = 5000
    margin_buffer: float = 1e-6  # keep the contraction margin at least this


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
    return PiecewiseConstantFn(g.cell_boundaries(), s)


def _statistic(observed: PiecewiseConstantFn,
               g: Graphon) -> tuple[np.ndarray, np.ndarray, float]:
    """The observation's sufficient statistic on ``g``'s cells:
    (root_w, target, offset) with root_w = sqrt(w), target = a / sqrt(w) and
    offset = c, so that J(eta) = ||root_w * s_eta - target||^2 + offset."""
    root_w = np.sqrt(g.cell_weights())
    target = cell_integrals(observed, g.cell_boundaries()) / root_w
    offset = integrate_product(observed, observed) - float(target @ target)
    return root_w, target, offset


def _j(stat, solve, spec: LQAffine, eta, order: int = 0) -> list:
    """[J] at eta, plus its gradient for ``order`` 1 and its Hessian for 2,
    from the solver ``solve`` = ``_kernel_resolvent(g, spec)``.

    With r = root_w * s - target and G = ds/deta from the resolvent:
    J = ||r||^2 + offset (clamped at 0 against rounding), grad J =
    2 (root_w G)^T r and H = 2 (root_w G)^T (root_w G) + 2 sum_k root_w_k
    r_k d2s_k. H is exactly symmetric. The derivatives raise
    :class:`NotInterior` where the equilibrium touches a strategy bound.
    """
    root_w, target, offset = stat
    s, _, *derivs = solve(eta, order)
    r = root_w * s - target
    out = [max(float(r @ r) + offset, 0.0)]
    if order == 0:
        return out
    if not spec.strategy_set.is_interior(s):
        raise NotInterior(
            "equilibrium touches a strategy bound; derivative formulas "
            "are not valid there"
        )
    jac = root_w[:, None] * derivs[0]
    out.append(2.0 * (jac.T @ r))
    if order == 2:
        half = jac.T @ jac + derivs[1] @ (root_w * r)
        out.append(half + half.T)
    return out


def objective(observed: PiecewiseConstantFn, g: Graphon, spec: LQAffine,
              eta) -> float:
    """J(eta): squared L2 distance between the observation and the model
    equilibrium."""
    return _j(_statistic(observed, g), _kernel_resolvent(g, spec), spec, eta)[0]


def objective_gradient(observed: PiecewiseConstantFn, g: Graphon,
                       spec: LQAffine, eta) -> np.ndarray:
    """Analytic gradient of J, -2 * integral of (observed - s_eta) *
    ds_eta/deta. Valid only at interior equilibria."""
    return _j(_statistic(observed, g), _kernel_resolvent(g, spec), spec, eta,
              1)[1]


def hessian(observed: PiecewiseConstantFn, g: Graphon, spec: LQAffine,
            eta) -> HessianInfo:
    """Analytic Hessian of J and its minimum eigenvalue: a gradient
    outer-product term plus a residual-weighted curvature term, which
    vanishes at zero residual and leaves a positive semidefinite matrix.
    Valid only at interior equilibria."""
    h = _j(_statistic(observed, g), _kernel_resolvent(g, spec), spec, eta,
           2)[2]
    return HessianInfo(matrix=h, min_eigenvalue=float(np.linalg.eigvalsh(h)[0]))


def _certify(stat, solve, spec: LQAffine, eta, grad_j, lo,
             hi) -> tuple[float, float, bool]:
    """(J at eta, smallest eigenvalue of the Hessian of J there, whether eta
    passes the second-order certificate on the box [lo, hi]).

    A coordinate is free unless its projected-gradient step eta - grad_j
    is clipped. The Hessian on the q free coordinates must have its
    smallest eigenvalue above q * eps * max |eigenvalue| of that
    sub-matrix, the rounding level of numpy's matrix_rank; an empty free
    set certifies. The eigenvalue is NaN, and eta not certified, where the
    model equilibrium touches a strategy bound; J then takes an order-0
    solve of its own."""
    try:
        j, _, h = _j(stat, solve, spec, eta, 2)
    except NotInterior:
        return _j(stat, solve, spec, eta)[0], float("nan"), False
    step = eta - grad_j
    free = (step >= lo) & (step <= hi)
    full = np.linalg.eigvalsh(h)
    eig = full if free.all() else np.linalg.eigvalsh(h[np.ix_(free, free)])
    floor = eig.size * np.finfo(float).eps * np.abs(eig).max(initial=0.0)
    return j, float(full[0]), bool(eig.size == 0 or eig[0] > floor)


def estimate(observed: PiecewiseConstantFn, g: Graphon, spec: LQAffine,
             options: EstimateOptions | None = None) -> EstimationResult:
    """Minimize J over the parameter box by one certified solve.

    Every corner of the box must satisfy the spectral condition. Candidate
    parameters are additionally capped so the contraction margin stays at
    least ``margin_buffer``, so no solve leaves the resolvent's domain.
    The solve runs from the box center with at most ``max_iter`` residual
    evaluations. ``converged`` is true when its projected-gradient norm is
    at most ``gtol`` and the certificate (module docstring) holds; a
    non-identifiable game, whose Hessian is singular, or a solve that
    stalls above ``gtol`` reports false. ``hessian_min_eig`` is the
    smallest eigenvalue of the full Hessian.
    """
    opts = options if options is not None else EstimateOptions()
    margin = contraction_margin(spec, g)
    if margin <= 0.0:
        raise InfeasibleParameterSet(
            f"a corner of the parameter box leaves contraction margin {margin}"
        )
    lo = spec.xi.lower.copy()
    hi = spec.xi.upper.copy()
    lam = g.lambda_max()
    if lam > 0.0:
        cap = (1.0 - opts.margin_buffer) / lam
        mask = spec.aggregate_mask()
        hi[mask] = np.minimum(hi[mask], cap)
    if np.any(hi <= lo):
        raise NoStart("margin cap leaves no interior in the parameter box")

    stat = _statistic(observed, g)
    root_w, target, _ = stat
    solve = _kernel_resolvent(g, spec)

    def residual(eta):
        return root_w * solve(eta, 0)[0] - target

    def jacobian(eta):
        return root_w[:, None] * solve(eta, 1)[2]

    fit = least_squares(
        residual, 0.5 * (lo + hi), jac=jacobian, bounds=(lo, hi),
        method="trf", xtol=LSQ_TOL, ftol=LSQ_TOL, gtol=LSQ_TOL,
        max_nfev=opts.max_iter,
    )
    grad_j = 2.0 * (fit.jac.T @ fit.fun)
    pgnorm = float(np.linalg.norm(fit.x - np.clip(fit.x - grad_j, lo, hi)))
    j_hat, min_eig, certified = _certify(stat, solve, spec, fit.x, grad_j,
                                         lo, hi)
    return EstimationResult(
        eta_hat=fit.x,
        objective=j_hat,
        gradient_norm=pgnorm,
        hessian_min_eig=min_eig,
        starts=1,
        iterations_total=fit.nfev,
        converged=pgnorm <= opts.gtol and certified,
    )
