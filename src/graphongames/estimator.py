"""Least-squares parameter estimation from an observed equilibrium.

The estimator minimizes J(eta) = || observed - s_eta ||_{L2}^2 over a box
of admissible parameters, where s_eta is the model equilibrium at eta. J,
its gradient and its Hessian are all exact integrals of step functions; the
Hessian splits into a gradient outer-product term and a residual-weighted
curvature term and is exposed for diagnostics only.

On the kernel's natural partition (cell weights w) J is a sum of squared
residuals plus a constant, J = ||r||^2 + c with r = sqrt(w) s_eta - a/sqrt(w),
a_i the observation's integral over cell i and c = int obs^2 - sum a_i^2/w_i.
Each start minimizes ||r||^2 by trust-region reflective bounded least
squares with the exact Jacobian sqrt(w) ds/deta. Starts are the box center
plus a Halton grid, so the estimate is a pure function of the observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.stats import qmc

from .errors import InfeasibleParameterSet, NoStart, NotInterior
from .functionspace import (
    PiecewiseConstantFn,
    cell_integrals,
    integrate_product,
    l2_distance,
)
from .game import GameSpec, contraction_margin
from .graphon import Graphon
from .equilibrium import (
    equilibrium_gradient,
    equilibrium_second_derivatives,
    gradient_values,
    solve_values,
)

# scipy's xtol, ftol and gtol: a start runs to the rounding floor or to
# max_iter; EstimateOptions.gtol alone decides whether it converged.
LSQ_TOL = 1e-15


@dataclass
class EstimateOptions:
    """Optimizer knobs. Defaults keep estimation deterministic and well
    inside the resolvent's domain. ``max_iter`` caps the residual
    evaluations of each start's trust-region reflective solve."""

    starts: int = 8              # Halton points, in addition to the box center
    gtol: float = 1e-9
    max_iter: int = 5000
    margin_buffer: float = 1e-6  # keep the contraction margin at least this
    tie_tol: float = 1e-12


@dataclass
class EstimationResult:
    eta_hat: np.ndarray
    objective: float
    gradient_norm: float
    hessian_min_eig: float
    starts: int
    iterations_total: int
    converged: bool


@dataclass
class HessianInfo:
    matrix: np.ndarray
    min_eigenvalue: float


def model_equilibrium_fn(g: Graphon, spec: GameSpec, eta) -> PiecewiseConstantFn:
    """Model equilibrium profile at eta as a step function."""
    s, _ = solve_values(g, spec, eta)
    return PiecewiseConstantFn(g.cell_boundaries(), s)


def objective(observed: PiecewiseConstantFn, g: Graphon, spec: GameSpec,
              eta) -> float:
    """J(eta): squared L2 distance between the observation and the model
    equilibrium, exact on the merged partition."""
    return l2_distance(observed, model_equilibrium_fn(g, spec, eta)) ** 2


def objective_gradient(observed: PiecewiseConstantFn, g: Graphon,
                       spec: GameSpec, eta) -> np.ndarray:
    """Analytic gradient of J: component i is
    -2 * integral of (observed - s_eta) * d s_eta / d eta_i.
    Valid only at interior equilibria."""
    grads = equilibrium_gradient(g, spec, eta)
    residual = observed - model_equilibrium_fn(g, spec, eta)
    return np.array([-2.0 * integrate_product(residual, gi) for gi in grads])


def hessian(observed: PiecewiseConstantFn, g: Graphon, spec: GameSpec,
            eta) -> HessianInfo:
    """Analytic Hessian of J and its minimum eigenvalue.

    H = 2 T1 - 2 T2 where T1 integrates the gradient outer product and T2
    integrates the residual against the second derivatives; T2 vanishes at
    zero residual, leaving the positive semidefinite 2 T1.
    """
    grads = equilibrium_gradient(g, spec, eta)
    seconds = equilibrium_second_derivatives(g, spec, eta)
    residual = observed - model_equilibrium_fn(g, spec, eta)
    n = len(grads)
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            t1 = integrate_product(grads[i], grads[j])
            t2 = integrate_product(residual, seconds[i][j])
            h[i, j] = h[j, i] = 2.0 * (t1 - t2)
    return HessianInfo(matrix=h, min_eigenvalue=float(np.linalg.eigvalsh(h).min()))


def _start_points(lo, hi, count: int) -> np.ndarray:
    """Deterministic multistart set: box center plus an unscrambled Halton
    grid scaled into the box."""
    pts = [0.5 * (lo + hi)]
    if count > 0:
        halton = qmc.Halton(d=lo.size, scramble=False).random(count)
        pts.extend(lo + halton * (hi - lo))
    return np.array(pts)


def estimate(observed: PiecewiseConstantFn, g: Graphon, spec: GameSpec,
             options: EstimateOptions | None = None) -> EstimationResult:
    """Minimize J over the parameter box and return the best run.

    Every corner of the box must satisfy the spectral condition. Candidate
    parameters are additionally capped so the contraction margin stays at
    least ``margin_buffer``, so no solve leaves the resolvent's domain.
    Each start is a trust-region reflective least-squares solve of the
    residual form of J with at most ``max_iter`` residual evaluations; it
    moves starts on the box boundary strictly inside. Runs are ranked by
    final J. Runs within ``tie_tol`` of the best J are tied (their J values
    differ by rounding only); among them a converged run (projected-gradient
    norm at most ``gtol``) wins, then the smallest projected-gradient norm,
    then the lexicographically smallest parameter. ``converged`` describes
    the run reported, so it is false only when no tied run converged.
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

    root_w = np.sqrt(g.cell_weights())
    target = cell_integrals(observed, g.cell_boundaries()) / root_w
    offset = integrate_product(observed, observed) - float(target @ target)

    def residual(eta):
        s, _ = solve_values(g, spec, eta)
        return root_w * s - target

    def jacobian(eta):
        _, _, grad = gradient_values(g, spec, eta)
        return root_w[:, None] * grad

    starts = _start_points(lo, hi, opts.starts)
    # each run is (eta, J, projected-gradient norm, residual evaluations)
    runs = []
    for x0 in starts:
        fit = least_squares(
            residual, x0, jac=jacobian, bounds=(lo, hi), method="trf",
            xtol=LSQ_TOL, ftol=LSQ_TOL, gtol=LSQ_TOL, max_nfev=opts.max_iter,
        )
        grad_j = 2.0 * (fit.jac.T @ fit.fun)
        pgnorm = float(np.linalg.norm(fit.x - np.clip(fit.x - grad_j, lo, hi)))
        j = max(float(fit.fun @ fit.fun) + offset, 0.0)
        runs.append((fit.x, j, pgnorm, fit.nfev))
    total_evals = sum(run[3] for run in runs)
    best_j = min(run[1] for run in runs)
    eta_hat, fx, pgnorm, _ = min(
        (run for run in runs if run[1] <= best_j + opts.tie_tol),
        key=lambda run: (run[2] > opts.gtol, run[2], tuple(run[0])),
    )
    try:
        min_eig = hessian(observed, g, spec, eta_hat).min_eigenvalue
    except NotInterior:
        min_eig = float("nan")
    return EstimationResult(
        eta_hat=eta_hat,
        objective=fx,
        gradient_norm=pgnorm,
        hessian_min_eig=min_eig,
        starts=len(starts),
        iterations_total=total_evals,
        converged=pgnorm <= opts.gtol,
    )
