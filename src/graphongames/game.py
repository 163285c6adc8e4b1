"""Payoff parametrizations for linear-quadratic network games.

A game couples a compact interval strategy set, a box of admissible
parameter vectors, and a map from the parameter vector to the per-agent
heterogeneity pair (standalone marginal return, aggregate effect). An
agent's pair depends on its position only through the cell of the kernel's
natural partition that holds it, and on those cells the map is affine,
theta1 = b1 + D1 eta and theta2 = b2 + D2 eta. :meth:`GameSpec.affine_maps`
describes it once; every solver reads theta there, at the cells of its
agents or of the partition itself. A new game is its affine maps plus
validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfBox
from .graphon import Graphon, SBMGraphon

# Relative width of the band near each strategy bound inside which an
# equilibrium value counts as touching the bound.
INTERIOR_REL_TOL = 1e-9


@dataclass
class StrategySet:
    """A compact interval of admissible scalar strategies."""

    lower: float
    upper: float

    def __post_init__(self):
        self.lower = float(self.lower)
        self.upper = float(self.upper)
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("strategy bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError("strategy set needs lower < upper")

    @property
    def s_max(self) -> float:
        return max(abs(self.lower), abs(self.upper))

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def clamp(self, s):
        return np.clip(s, self.lower, self.upper)

    def is_interior(self, values, rel_tol: float = INTERIOR_REL_TOL) -> bool:
        """True iff every value keeps a distance > rel_tol * width from
        both bounds."""
        vals = np.asarray(values, dtype=float)
        band = rel_tol * self.width
        return bool(
            np.all(vals - self.lower > band) and np.all(self.upper - vals > band)
        )


@dataclass
class ParameterBox:
    """Axis-aligned box of admissible nonnegative parameter vectors."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lo < 0.0):
            raise ValueError("parameter box must lie in the nonnegative orthant")
        if not np.all(lo < hi):
            raise ValueError("box needs lower < upper in every coordinate")
        self.lower = lo
        self.upper = hi

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, eta) -> bool:
        e = np.asarray(eta, dtype=float)
        return bool(np.all(e >= self.lower) and np.all(e <= self.upper))

    def contains_interior(self, eta) -> bool:
        e = np.asarray(eta, dtype=float)
        return bool(np.all(e > self.lower) and np.all(e < self.upper))

    def clamp(self, eta) -> np.ndarray:
        return np.clip(np.asarray(eta, dtype=float), self.lower, self.upper)

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def corners(self) -> np.ndarray:
        return np.array(list(itertools.product(*zip(self.lower, self.upper))))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(size, self.dim))


class GameSpec:
    """Base class for payoff parametrizations; see the two variants below."""

    strategy_set: StrategySet
    xi: ParameterBox

    @property
    def n_params(self) -> int:
        return self.xi.dim

    def affine_maps(self, g: Graphon):
        """(b1, D1, b2, D2) on the cells of ``g``'s partition: the per-cell
        heterogeneity is theta1 = b1 + D1 eta and theta2 = b2 + D2 eta, with
        b1, b2 of length n_cells and D1, D2 of shape (n_cells, n_params)."""
        raise NotImplementedError

    def aggregate_coefficient(self, g: Graphon, eta) -> float:
        """Largest magnitude max |theta2| of the coefficient multiplying the
        local aggregate, at one parameter vector or over a stack of them
        (one per row)."""
        _, _, b2, d2 = self.affine_maps(g)
        return float(np.max(np.abs(b2 + np.asarray(eta, dtype=float) @ d2.T)))

    def aggregate_mask(self, g: Graphon) -> np.ndarray:
        """Boolean mask of the parameter coordinates that multiply the
        local aggregate (and hence enter the spectral condition)."""
        _, _, _, d2 = self.affine_maps(g)
        return np.any(d2 != 0.0, axis=0)

    def cell_thetas(self, g: Graphon, eta):
        """Per-cell heterogeneity (theta1, theta2) on ``g``'s partition at
        ``eta``. Raises ParameterOutOfBox unless ``eta`` lies in the box."""
        e = _check_in_box(self.xi, eta)
        b1, d1, b2, d2 = self.affine_maps(g)
        return b1 + d1 @ e, b2 + d2 @ e


@dataclass
class LQHomogeneous(GameSpec):
    """Two unknown parameters shared by every agent: eta = (standalone
    marginal return, aggregate effect)."""

    strategy_set: StrategySet
    xi: ParameterBox

    def __post_init__(self):
        if self.xi.dim != 2:
            raise ValueError("homogeneous game takes a 2-d parameter box")

    def affine_maps(self, g: Graphon):
        # theta1 = eta1 * 1, theta2 = eta2 * 1
        n = g.cell_weights().size
        d1, d2 = np.zeros((n, 2)), np.zeros((n, 2))
        d1[:, 0] = d2[:, 1] = 1.0
        return np.zeros(n), d1, np.zeros(n), d2


@dataclass
class LQSBM(GameSpec):
    """Known homogeneous standalone return theta1 > 0; one unknown aggregate
    effect per community, eta in R_+^K. Requires nonnegative strategies."""

    theta1: float
    strategy_set: StrategySet
    xi: ParameterBox

    def __post_init__(self):
        self.theta1 = float(self.theta1)
        if self.theta1 <= 0.0:
            raise ValueError("theta1 must be positive")
        if self.strategy_set.lower < 0.0:
            raise ValueError("community game requires a nonnegative strategy set")

    def affine_maps(self, g: Graphon):
        # theta1 = theta1 * 1, theta2 = eta, one cell per community
        if not isinstance(g, SBMGraphon):
            raise TypeError(
                "a community game needs a block kernel carrying the communities"
            )
        k = g.n_communities
        if k != self.xi.dim:
            raise ValueError(
                f"kernel has {k} communities, parameter box {self.xi.dim}"
            )
        return np.full(k, self.theta1), np.zeros((k, k)), np.zeros(k), np.eye(k)


def _check_in_box(xi: ParameterBox, eta) -> np.ndarray:
    e = np.asarray(eta, dtype=float)
    if e.shape != (xi.dim,):
        raise ParameterOutOfBox(
            f"expected a parameter vector of length {xi.dim}, got shape {e.shape}"
        )
    if not xi.contains(e):
        raise ParameterOutOfBox(f"parameter {e.tolist()} outside the box")
    return e


def contraction_margin(spec: GameSpec, g: Graphon, eta=None) -> float:
    """1 minus lambda_max times the largest aggregate coefficient.

    With ``eta`` given, the margin at that parameter; otherwise the worst
    case over the corners of the parameter box, which certifies existence
    and uniqueness of the equilibrium for every admissible parameter. May
    be negative; callers decide what to do with a nonpositive margin.
    """
    points = spec.xi.corners() if eta is None else eta
    return 1.0 - g.lambda_max() * spec.aggregate_coefficient(g, points)
