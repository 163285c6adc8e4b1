"""Payoff parametrizations for linear-quadratic network games.

A game couples a compact interval strategy set, a box of admissible
parameter vectors, and a map from the parameter vector to the per-agent
heterogeneity pair (standalone marginal return, aggregate effect). An
agent's pair depends on its position only through the cell of the kernel's
partition that holds it, and on those cells the map is affine, theta1 =
b1 + D1 eta and theta2 = b2 + D2 eta, with one row shared by every cell or
one row per cell of a K-cell kernel. A game is one value,
:class:`LQAffine`, holding those maps, which every solver reads at its cells.
:class:`LQHomogeneous` and :class:`LQSBM` only fill in the maps of the two
named games; a new game is new maps, not a new class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAContraction, ParameterOutOfBox
from .graphon import Graphon

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
    def width(self) -> float:
        return self.upper - self.lower

    def is_interior(self, values) -> bool:
        """True iff every value keeps a distance > INTERIOR_REL_TOL * width
        from both bounds."""
        vals = np.asarray(values, dtype=float)
        band = INTERIOR_REL_TOL * self.width
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
        if not np.all((lo < hi) & np.isfinite(hi)):
            raise ValueError("box needs lower < upper < inf in every coordinate")
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(size, self.dim))


@dataclass
class LQAffine:
    """A linear-quadratic game as data: theta1 = b1 + D1 eta and theta2 =
    b2 + D2 eta, with one row shared by every cell of any kernel, or K rows,
    one per cell of a K-cell kernel. Checked once: the shapes, theta1,
    theta2 >= 0 over the box (to the rounding of their sums) and a
    nonnegative strategy set. The maps are stored read-only."""

    strategy_set: StrategySet
    xi: ParameterBox
    b1: np.ndarray
    d1: np.ndarray
    b2: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        maps = [np.array(m, dtype=float)
                for m in (self.b1, self.d1, self.b2, self.d2)]
        r, p = (maps[0].size,), (self.xi.dim,)
        if not r[0] or [m.shape for m in maps] != [r, r + p, r, r + p]:
            raise ValueError(f"map shapes {[m.shape for m in maps]} do not "
                             f"fit a {p[0]}-d parameter box")
        for b, d in (maps[:2], maps[2:]):
            # the rounded sum of the minimum's p + 1 terms errs by up to
            # about (p + 1) / 2 ulp of their magnitudes, so a minimum of
            # exactly 0 can land just below it: allow twice that
            slack = (p[0] + 1) * np.finfo(float).eps * (
                np.abs(b) + np.abs(d) @ self.xi.upper)
            if not np.all(_over_box(np.minimum, b, d, self.xi) >= -slack):
                raise ValueError("theta1 or theta2 is negative in the box")
        if self.strategy_set.lower < 0.0:
            raise ValueError("the game requires a nonnegative strategy set")
        for m in maps:
            m.flags.writeable = False
        self.b1, self.d1, self.b2, self.d2 = maps

    def affine_maps(self, g: Graphon):
        """(b1, D1, b2, D2) on the cells of ``g``'s partition: the per-cell
        heterogeneity is theta1 = b1 + D1 eta and theta2 = b2 + D2 eta. A
        shared row is repeated on every cell; K rows raise ValueError on a
        kernel that has not K cells."""
        maps = self.b1, self.d1, self.b2, self.d2
        k, n = self.b1.size, g.pi.size
        if k == 1:
            return tuple(m.repeat(n, axis=0) for m in maps)
        if k != n:
            raise ValueError(f"a community game with {k} communities is on a "
                             f"kernel with {n} cells")
        return maps

    def cell_thetas(self, g: Graphon, eta):
        """Per-cell heterogeneity (theta1, theta2) on ``g``'s partition at
        ``eta``. Raises ParameterOutOfBox unless ``eta`` lies in the box."""
        e = _check_in_box(self.xi, eta)
        b1, d1, b2, d2 = self.affine_maps(g)
        return b1 + d1 @ e, b2 + d2 @ e


class LQHomogeneous(LQAffine):
    """Two unknown parameters shared by every agent: eta = (standalone
    marginal return, aggregate effect)."""

    def __init__(self, strategy_set: StrategySet, xi: ParameterBox):
        # theta1 = eta1, theta2 = eta2 on every cell
        super().__init__(strategy_set, xi, [0.0], [[1.0, 0.0]], [0.0],
                         [[0.0, 1.0]])


class LQSBM(LQAffine):
    """Known homogeneous standalone return theta1 > 0; one unknown aggregate
    effect per community, eta in R_+^K."""

    def __init__(self, theta1: float, strategy_set: StrategySet,
                 xi: ParameterBox):
        # theta1 = theta1 * 1, theta2 = eta, one row per community
        if not float(theta1) > 0.0:
            raise ValueError("theta1 must be positive")
        k = xi.dim
        super().__init__(strategy_set, xi, np.full(k, float(theta1)),
                         np.zeros((k, k)), np.zeros(k), np.eye(k))


def _check_in_box(xi: ParameterBox, eta) -> np.ndarray:
    e = np.asarray(eta, dtype=float)
    if e.shape != (xi.dim,):
        raise ParameterOutOfBox(
            f"expected a parameter vector of length {xi.dim}, got shape {e.shape}"
        )
    if not xi.contains(e):
        raise ParameterOutOfBox(f"parameter {e.tolist()} outside the box")
    return e


def _over_box(pick, b, d, xi: ParameterBox) -> np.ndarray:
    """The minimum (``pick`` = np.minimum) or maximum (np.maximum) of each
    row of the affine map b + d eta over the box ``xi``: the row's extreme
    is reached coordinate by coordinate, at one bound or the other."""
    return b + pick(d * xi.lower, d * xi.upper).sum(axis=1)


def contraction_margin(spec: LQAffine, g: Graphon, eta=None) -> float:
    """1 minus lambda_max times the largest aggregate coefficient |theta2|.

    With ``eta`` given, the margin at that parameter; otherwise the worst
    case over the parameter box. theta2 is affine and, by the game's
    construction check, nonnegative on the box, so its largest value there
    is each row's maximum, read in closed form. That margin bounds the
    margin at every eta in the box, so a positive one certifies existence
    and uniqueness of the equilibrium for every admissible parameter. May
    be negative; :func:`require_contraction` refuses a nonpositive one.
    """
    if eta is None:
        theta2 = _over_box(np.maximum, spec.b2, spec.d2, spec.xi)
    else:
        theta2 = np.abs(spec.b2 + spec.d2 @ np.asarray(eta, dtype=float))
    return 1.0 - g.lambda_max() * float(np.max(theta2))


def require_contraction(spec: LQAffine, g: Graphon, eta=None) -> float:
    """:func:`contraction_margin` at ``eta`` (over the box when ``eta`` is
    None); raises :class:`NotAContraction` unless it is positive."""
    margin = contraction_margin(spec, g, eta)
    if not margin > 0.0:
        where = ("over the parameter box" if eta is None
                 else f"at eta={np.asarray(eta).tolist()}")
        raise NotAContraction(
            f"contraction margin {margin} is not positive {where}")
    return margin
