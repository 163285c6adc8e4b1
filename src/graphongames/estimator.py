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

Each start minimizes ||r||^2 by trust-region reflective bounded least
squares with the exact Jacobian sqrt(w) G. The first start is the box
center. Its solve is accepted when it converged at a Hessian that is
positive definite beyond rounding, a strict local minimum, which under
identifiability is the unique one. Only otherwise does a Halton grid of
further starts run. Either way the estimate is a pure function of the
observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import InfeasibleParameterSet, NoStart, NotInterior
from .functionspace import PiecewiseConstantFn, cell_integrals, integrate_product
from .game import GameSpec, contraction_margin
from .graphon import Graphon
from .equilibrium import _resolvent, gradient_values, solve_values

# scipy's xtol, ftol and gtol: a start runs to the rounding floor or to
# max_iter; EstimateOptions.gtol alone decides whether it converged.
LSQ_TOL = 1e-15


@dataclass
class EstimateOptions:
    """Optimizer knobs. Defaults keep estimation deterministic and well
    inside the resolvent's domain. ``max_iter`` caps the residual
    evaluations of each start's trust-region reflective solve."""

    starts: int = 8              # Halton points, run only when the center
                                 # start is not certified
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


def _statistic(observed: PiecewiseConstantFn,
               g: Graphon) -> tuple[np.ndarray, np.ndarray, float]:
    """The observation's sufficient statistic on ``g``'s cells:
    (root_w, target, offset) with root_w = sqrt(w), target = a / sqrt(w) and
    offset = c, so that J(eta) = ||root_w * s_eta - target||^2 + offset."""
    root_w = np.sqrt(g.cell_weights())
    target = cell_integrals(observed, g.cell_boundaries()) / root_w
    offset = integrate_product(observed, observed) - float(target @ target)
    return root_w, target, offset


def _j(stat, g: Graphon, spec: GameSpec, eta, order: int = 0) -> list:
    """[J] at eta, plus its gradient for ``order`` 1 and its Hessian for 2.

    With r = root_w * s - target and G = ds/deta from the resolvent:
    J = ||r||^2 + offset (clamped at 0 against rounding), grad J =
    2 (root_w G)^T r and H = 2 (root_w G)^T (root_w G) + 2 sum_k root_w_k
    r_k d2s_k. H is exactly symmetric. The derivatives raise
    :class:`NotInterior` where the equilibrium touches a strategy bound.
    """
    root_w, target, offset = stat
    s, _, *derivs = _resolvent(g, spec, eta, order)
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


def objective(observed: PiecewiseConstantFn, g: Graphon, spec: GameSpec,
              eta) -> float:
    """J(eta): squared L2 distance between the observation and the model
    equilibrium."""
    return _j(_statistic(observed, g), g, spec, eta)[0]


def objective_gradient(observed: PiecewiseConstantFn, g: Graphon,
                       spec: GameSpec, eta) -> np.ndarray:
    """Analytic gradient of J, -2 * integral of (observed - s_eta) *
    ds_eta/deta. Valid only at interior equilibria."""
    return _j(_statistic(observed, g), g, spec, eta, 1)[1]


def hessian(observed: PiecewiseConstantFn, g: Graphon, spec: GameSpec,
            eta) -> HessianInfo:
    """Analytic Hessian of J and its minimum eigenvalue: a gradient
    outer-product term plus a residual-weighted curvature term, which
    vanishes at zero residual and leaves a positive semidefinite matrix.
    Valid only at interior equilibria."""
    h = _j(_statistic(observed, g), g, spec, eta, 2)[2]
    return HessianInfo(matrix=h, min_eigenvalue=float(np.linalg.eigvalsh(h)[0]))


def _primes(count: int) -> list[int]:
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def _halton(count: int, d: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence in
    [0, 1)^d, one radical inverse per prime base; the same floating-point
    steps as scipy.stats.qmc.Halton(scramble=False), without loading
    scipy.stats."""
    out = np.zeros((count, d))
    for j, base in enumerate(_primes(d)):
        for i in range(count):
            q, scale = i, 1.0 / base
            while q > 0:
                out[i, j] += (q % base) * scale
                scale /= base
                q //= base
    return out


def _start_points(lo, hi, count: int) -> np.ndarray:
    """Deterministic multistart set: box center plus an unscrambled Halton
    grid scaled into the box."""
    halton = lo + _halton(count, lo.size) * (hi - lo)
    return np.vstack([0.5 * (lo + hi), halton])


def _certify(stat, g: Graphon, spec: GameSpec, eta) -> tuple[float, bool]:
    """(smallest eigenvalue of the Hessian of J at eta, whether it exceeds
    the rounding level p * eps * max |eigenvalue| of numpy's matrix_rank).
    The eigenvalue is NaN, and the Hessian not certified, where the model
    equilibrium touches a strategy bound."""
    try:
        eig = np.linalg.eigvalsh(_j(stat, g, spec, eta, 2)[2])
    except NotInterior:
        return float("nan"), False
    floor = eig.size * np.finfo(float).eps * np.abs(eig).max()
    return float(eig[0]), bool(eig[0] > floor)


def estimate(observed: PiecewiseConstantFn, g: Graphon, spec: GameSpec,
             options: EstimateOptions | None = None) -> EstimationResult:
    """Minimize J over the parameter box and return the best run.

    Every corner of the box must satisfy the spectral condition. Candidate
    parameters are additionally capped so the contraction margin stays at
    least ``margin_buffer``, so no solve leaves the resolvent's domain.
    Each start is a trust-region reflective least-squares solve of the
    residual form of J with at most ``max_iter`` residual evaluations; it
    moves starts on the box boundary strictly inside.

    The box center is solved first. Its run is returned when it converged
    (projected-gradient norm at most ``gtol``) and the smallest eigenvalue
    of the Hessian of J there exceeds p * eps * max |eigenvalue|, the
    rounding level numpy's ``matrix_rank`` uses. Otherwise the ``starts``
    Halton points run too, and all runs are ranked by final J. Runs within
    ``tie_tol`` of the best J are tied (their J values differ by rounding
    only); among them a converged run wins, then the smallest
    projected-gradient norm, then the lexicographically smallest
    parameter. ``converged`` describes the run
    reported, so it is false only when no tied run converged, and
    ``starts`` counts the runs made: 1, or 1 + ``starts``.
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
        mask = spec.aggregate_mask(g)
        hi[mask] = np.minimum(hi[mask], cap)
    if np.any(hi <= lo):
        raise NoStart("margin cap leaves no interior in the parameter box")

    stat = _statistic(observed, g)
    root_w, target, _ = stat

    def residual(eta):
        s, _ = solve_values(g, spec, eta)
        return root_w * s - target

    def jacobian(eta):
        _, _, grad = gradient_values(g, spec, eta)
        return root_w[:, None] * grad

    def run(x0):
        """(eta, J, projected-gradient norm, residual evaluations)"""
        fit = least_squares(
            residual, x0, jac=jacobian, bounds=(lo, hi), method="trf",
            xtol=LSQ_TOL, ftol=LSQ_TOL, gtol=LSQ_TOL, max_nfev=opts.max_iter,
        )
        grad_j = 2.0 * (fit.jac.T @ fit.fun)
        pgnorm = float(np.linalg.norm(fit.x - np.clip(fit.x - grad_j, lo, hi)))
        return fit.x, _j(stat, g, spec, fit.x)[0], pgnorm, fit.nfev

    center = run(0.5 * (lo + hi))
    min_eig, definite = _certify(stat, g, spec, center[0])
    runs = [center]
    certified = center[2] <= opts.gtol and definite
    if not certified:
        runs += [run(x0) for x0 in _start_points(lo, hi, opts.starts)[1:]]
    best_j = min(r[1] for r in runs)
    best = min(
        (r for r in runs if r[1] <= best_j + opts.tie_tol),
        key=lambda r: (r[2] > opts.gtol, r[2], tuple(r[0])),
    )
    if best is not center:
        min_eig, _ = _certify(stat, g, spec, best[0])
    eta_hat, fx, pgnorm, _ = best
    return EstimationResult(
        eta_hat=eta_hat,
        objective=fx,
        gradient_norm=pgnorm,
        hessian_min_eig=min_eig,
        starts=len(runs),
        iterations_total=sum(r[3] for r in runs),
        converged=pgnorm <= opts.gtol,
    )
