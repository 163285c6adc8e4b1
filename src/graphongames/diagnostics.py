"""Identifiability analysis and derivative validation.

Identifiability here means a quantitative stability bound: the parameter
distance is controlled by an explicit constant L times the L2 distance of
the corresponding equilibria. The two shipped game families admit closed
forms for L; an empirical sampler can stress-test any supplied constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAggregate, NotInterior
from .game import LQAffine
from .graphon import Graphon
from .equilibrium import _kernel_resolvent, solve_lq_homogeneous, solve_values

# An aggregate whose L2 distance to its own mean is below this counts as
# constant, which collapses the two homogeneous parameters onto a line.
CONSTANT_AGGREGATE_TOL = 1e-10


@dataclass
class IdentifiabilityReport:
    """Outcome of an identifiability analysis.

    ``constant`` is the stability constant L when identifiable. ``gamma``
    is the mean level of the equilibrium aggregate (reported whenever it is
    computed; for a constant aggregate only the combination eta1 + gamma *
    eta2 can be recovered). ``detail`` carries variant-specific numbers.
    """

    identifiable: bool
    constant: float | None
    gamma: float | None
    detail: dict


def homogeneous_identifiability(g: Graphon, eta_bar,
                                constant_tol: float = CONSTANT_AGGREGATE_TOL) -> IdentifiabilityReport:
    """Identifiability of the two homogeneous parameters at eta_bar.

    Decomposes the equilibrium aggregate z into its mean gamma plus the
    orthogonal remainder z_perp. A constant aggregate (||z_perp|| below
    ``constant_tol``) makes only eta1 + gamma * eta2 recoverable. Otherwise
    the parameters are identifiable with

        L = 2 / sqrt(lambda_m * nu),
        lambda_m = ((gamma^2 + 2) - sqrt((gamma^2 + 2)^2 - 4)) / 2,
        nu = min(1, ||z_perp||^2),

    lambda_m being the smallest eigenvalue of [[1, gamma], [gamma,
    gamma^2 + 1]]. Note nu uses the squared remainder norm: the orthogonal
    expansion of ||a*1 + b*z_perp||^2 bounds it below by min(1,
    ||z_perp||^2) * (a^2 + b^2), and the unsquared variant admits
    counterexamples.
    """
    eta_bar = np.asarray(eta_bar, dtype=float)
    weights = g.cell_weights()
    z = solve_lq_homogeneous(g, eta_bar).aggregate.values
    gamma = float(np.dot(weights, z))
    z_perp = z - gamma
    z_perp_norm = float(np.sqrt(np.dot(weights, z_perp**2)))
    if z_perp_norm <= constant_tol:
        return IdentifiabilityReport(
            identifiable=False,
            constant=None,
            gamma=gamma,
            detail={"z_perp_norm": z_perp_norm},
        )
    t = gamma * gamma + 2.0
    lambda_m = (t - np.sqrt(t * t - 4.0)) / 2.0
    nu = min(1.0, z_perp_norm**2)
    constant = 2.0 / np.sqrt(lambda_m * nu)
    return IdentifiabilityReport(
        identifiable=True,
        constant=float(constant),
        gamma=gamma,
        detail={
            "lambda_m": float(lambda_m),
            "nu": float(nu),
            "z_perp_norm": z_perp_norm,
        },
    )


def sbm_identifiability_constant(g: Graphon, spec: LQAffine,
                                 eta_bar) -> IdentifiabilityReport:
    """Stability constant for the community game ``spec`` on the block
    kernel ``g``: L = 2 / (min_i aggregate_i * sqrt(min_k pi_k)), with the
    aggregates taken at the true parameter. Positive aggregates are
    guaranteed when every community has at least one positive interaction
    intensity."""
    _, aggregates = solve_values(g, spec, eta_bar)
    min_aggregate = float(aggregates.min())
    if min_aggregate <= 0.0:
        raise DegenerateAggregate(
            "a community has non-positive equilibrium aggregate; the "
            "constant is undefined (an isolated community?)"
        )
    min_weight = float(g.cell_weights().min())
    constant = 2.0 / (min_aggregate * np.sqrt(min_weight))
    return IdentifiabilityReport(
        identifiable=True,
        constant=float(constant),
        gamma=None,
        detail={"min_aggregate": min_aggregate, "min_weight": min_weight},
    )


def empirical_identifiability_test(g: Graphon, spec: LQAffine, eta_bar,
                                   constant: float, samples: int = 100,
                                   seed: int = 0) -> int:
    """Count violations of ||eta_bar - eta|| <= L * ||s_eta_bar - s_eta||_L2
    over parameters drawn uniformly in the box. Zero counts are expected for
    a correct constant; eta == eta_bar (both sides zero) never counts."""
    if constant <= 0.0:
        raise ValueError("the stability constant must be positive")
    eta_bar = np.asarray(eta_bar, dtype=float)
    weights = g.cell_weights()
    solve = _kernel_resolvent(g, spec)
    s_bar, _ = solve(eta_bar, 0)
    rng = np.random.default_rng(seed)
    violations = 0
    for eta in spec.xi.sample(rng, samples):
        s, _ = solve(eta, 0)
        dist = float(np.sqrt(np.dot(weights, (s - s_bar) ** 2)))
        if float(np.linalg.norm(eta - eta_bar)) > constant * dist:
            violations += 1
    return violations


def fd_check(g: Graphon, spec: LQAffine, eta, order: int = 1) -> float:
    """Worst relative error of the analytic equilibrium derivatives against
    central finite differences (step 1e-5 for first order, 1e-4 for second).

    The error of each derivative component is normalized by
    max(1, sup |analytic|) so identically-zero components are compared
    absolutely. Refuses at non-interior equilibria.
    """
    eta = np.asarray(eta, dtype=float)
    solve = _kernel_resolvent(g, spec)
    s0, _, grad, hess = solve(eta, 2)
    if not spec.strategy_set.is_interior(s0):
        raise NotInterior("equilibrium touches a strategy bound")
    n = eta.size

    def solve_at(e):
        return solve(e, 0)[0]

    worst = 0.0
    if order == 1:
        h = 1e-5
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fd = (solve_at(eta + ei) - solve_at(eta - ei)) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(grad[:, i]))))
            worst = max(worst, float(np.max(np.abs(fd - grad[:, i]))) / scale)
    elif order == 2:
        h = 1e-4
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fd = (solve_at(eta + ei) - 2.0 * s0 + solve_at(eta - ei)) / (h * h)
            scale = max(1.0, float(np.max(np.abs(hess[i, i]))))
            worst = max(worst, float(np.max(np.abs(fd - hess[i, i]))) / scale)
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                fd = (
                    solve_at(eta + ei + ej)
                    - solve_at(eta + ei - ej)
                    - solve_at(eta - ei + ej)
                    + solve_at(eta - ei - ej)
                ) / (4.0 * h * h)
                scale = max(1.0, float(np.max(np.abs(hess[i, j]))))
                worst = max(
                    worst, float(np.max(np.abs(fd - hess[i, j]))) / scale
                )
    else:
        raise ValueError("order must be 1 or 2")
    return worst
