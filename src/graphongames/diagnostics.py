"""Identifiability analysis and derivative validation.

Identifiability here means a quantitative stability bound: the parameter
distance is controlled by an explicit constant L times the L2 distance of
the corresponding equilibria. The two shipped game families admit closed
forms for L, each read off the game's equilibrium aggregate; an empirical
sampler can stress-test any supplied constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAggregate, NotInterior
from .game import LQAffine
from .graphon import Graphon
from .equilibrium import _kernel_resolvent, solve_values

# An aggregate whose L2 distance to its own mean is at most this counts as
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


def homogeneous_identifiability(g: Graphon, spec: LQAffine,
                                eta_bar) -> IdentifiabilityReport:
    """Identifiability of the homogeneous game ``spec`` (theta1 = eta1,
    theta2 = eta2 on every cell) at eta_bar.

    Decomposes the equilibrium aggregate z into its mean gamma plus the
    orthogonal remainder z_perp. A constant aggregate (||z_perp|| at most
    CONSTANT_AGGREGATE_TOL) makes only eta1 + gamma * eta2 recoverable.
    Otherwise the parameters are identifiable with

        L = 2 / sqrt(lambda_m * nu),
        lambda_m = ((gamma^2 + 2) - sqrt((gamma^2 + 2)^2 - 4)) / 2,
        nu = min(1, ||z_perp||^2),

    lambda_m being the smallest eigenvalue of [[1, gamma], [gamma,
    gamma^2 + 1]]. Note nu uses the squared remainder norm: the orthogonal
    expansion of ||a*1 + b*z_perp||^2 bounds it below by min(1,
    ||z_perp||^2) * (a^2 + b^2), and the unsquared variant admits
    counterexamples. Raises ValueError on any other game.
    """
    _require_maps(spec, ([0.0], [[1.0, 0.0]], [0.0], [[0.0, 1.0]]),
                  "theta1 = eta1 and theta2 = eta2 in one shared row")
    eta_bar = np.asarray(eta_bar, dtype=float)
    _, z = solve_values(g, spec, eta_bar)
    gamma = float(np.dot(g.pi, z))
    z_perp = z - gamma
    z_perp_norm = float(np.sqrt(np.dot(g.pi, z_perp**2)))
    if z_perp_norm <= CONSTANT_AGGREGATE_TOL:
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
    """Stability constant for the community game ``spec`` with k rows on the
    kernel ``g`` with K cells: L = 2 / (min_i aggregate_i * sqrt(min_i pi_i
    * K / k)), with the aggregates taken at the true parameter. One row
    shared by every cell (k = 1) moves the K cells' parameters together, by
    sqrt(K) |eta - eta_bar|. Positive aggregates are guaranteed when every
    community has at least one positive interaction intensity. Raises
    ValueError unless ``spec`` is the community game: a known theta1
    (D1 = 0) and theta2 = eta (b2 = 0, D2 = I)."""
    k = spec.b1.size
    _require_maps(spec, (spec.b1, np.zeros((k, k)), np.zeros(k), np.eye(k)),
                  "a known theta1 and theta2 = eta")
    _, aggregates = solve_values(g, spec, eta_bar)
    min_aggregate = float(aggregates.min())
    if min_aggregate <= 0.0:
        raise DegenerateAggregate(
            "a community has non-positive equilibrium aggregate; the "
            "constant is undefined (an isolated community?)"
        )
    min_weight = float(g.pi.min())
    constant = 2.0 / (min_aggregate * np.sqrt(min_weight * (g.pi.size / k)))
    return IdentifiabilityReport(
        identifiable=True,
        constant=float(constant),
        gamma=None,
        detail={"min_aggregate": min_aggregate, "min_weight": min_weight},
    )


def _require_maps(spec: LQAffine, maps, game: str) -> None:
    """Raise ValueError unless ``spec``'s (b1, D1, b2, D2) equal ``maps``."""
    if not all(map(np.array_equal, (spec.b1, spec.d1, spec.b2, spec.d2),
                   maps)):
        raise ValueError(f"this closed form holds only for the game with "
                         f"{game}")


def empirical_identifiability_test(g: Graphon, spec: LQAffine, eta_bar,
                                   constant: float, samples: int = 100,
                                   seed: int = 0) -> int:
    """Count violations of ||eta_bar - eta|| <= L * ||s_eta_bar - s_eta||_L2
    over parameters drawn uniformly in the box. Zero counts are expected for
    a correct constant; eta == eta_bar (both sides zero) never counts."""
    if constant <= 0.0:
        raise ValueError("the stability constant must be positive")
    eta_bar = np.asarray(eta_bar, dtype=float)
    solve = _kernel_resolvent(g, spec)
    # the solver's coordinates are L2-orthonormal: the L2 distance of two
    # equilibria is the Euclidean distance of their coordinates
    s_bar, _ = solve(eta_bar, 0)
    rng = np.random.default_rng(seed)
    violations = 0
    for eta in spec.xi.sample(rng, samples):
        s, _ = solve(eta, 0)
        dist = float(np.linalg.norm(s - s_bar))
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
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    solver = _kernel_resolvent(g, spec)
    s0, *_, deriv = solver.cells(solver(eta, order))
    if not spec.strategy_set.is_interior(s0):
        raise NotInterior("equilibrium touches a strategy bound")
    n = eta.size

    def solve_at(e):
        return solver.cells(solver(e, 0))[0]

    worst = 0.0
    if order == 1:
        h = 1e-5
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fd = (solve_at(eta + ei) - solve_at(eta - ei)) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(deriv[:, i]))))
            worst = max(worst, float(np.max(np.abs(fd - deriv[:, i]))) / scale)
    else:
        h = 1e-4
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fd = (solve_at(eta + ei) - 2.0 * s0 + solve_at(eta - ei)) / (h * h)
            scale = max(1.0, float(np.max(np.abs(deriv[i, i]))))
            worst = max(worst, float(np.max(np.abs(fd - deriv[i, i]))) / scale)
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                fd = (
                    solve_at(eta + ei + ej)
                    - solve_at(eta + ei - ej)
                    - solve_at(eta - ei + ej)
                    + solve_at(eta - ei - ej)
                ) / (4.0 * h * h)
                scale = max(1.0, float(np.max(np.abs(deriv[i, j]))))
                worst = max(
                    worst, float(np.max(np.abs(fd - deriv[i, j]))) / scale
                )
    return worst
