"""Piecewise-constant functions on [0, 1] with exact integration.

A function on [0, 1] is data in two places: an observation, the network
equilibrium embedded on the grid {i/N}, and the model profile that
``solve`` prints. Everything else lives on the kernel's cells as plain
arrays. The observation's cell integrals are exact, and
:func:`l2_distance` is the exact reference distance on the merged
partition of two step functions, with no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedPartition, OutOfDomain

# Absolute tolerance for coalescing near-duplicate breakpoints when merging
# partitions; guards against floating-point duplication when, for example,
# community boundaries coincide with grid points.
MERGE_TOL = 1e-12


@dataclass
class PiecewiseConstantFn:
    """A right-continuous step function on [0, 1].

    ``values[j]`` is the value on ``[breakpoints[j], breakpoints[j+1])``.
    The point x = 1 takes the last interval's value; this measure-zero
    convention has no effect on integrals and is fixed for determinism.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise MalformedPartition("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise MalformedPartition("breakpoints must be finite")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise MalformedPartition(
                f"partition must span [0, 1], got [{bp[0]}, {bp[-1]}]"
            )
        if not np.all(np.diff(bp) > 0.0):
            raise MalformedPartition("breakpoints must be strictly increasing")
        if vals.ndim != 1:
            raise MalformedPartition("values must be one-dimensional")
        if vals.size != bp.size - 1:
            raise MalformedPartition(
                f"expected {bp.size - 1} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise MalformedPartition("values must be finite")
        self.breakpoints = bp
        self.values = vals

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0.0) or np.any(xs > 1.0):
            raise OutOfDomain("evaluation point outside [0, 1]")
        idx = np.searchsorted(self.breakpoints, xs, side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def resample(self, breakpoints: np.ndarray) -> np.ndarray:
        """Values of this function on the cells of a refining partition.

        Cells are identified by their midpoints, so the result is exact
        whenever ``breakpoints`` refines this function's partition up to
        ``MERGE_TOL``.
        """
        mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
        idx = np.searchsorted(self.breakpoints, mids, side="right") - 1
        return self.values[np.clip(idx, 0, self.values.size - 1)]


def interpolate_equilibrium(s) -> PiecewiseConstantFn:
    """Embed a length-N strategy vector as a step function on the regular
    grid {i/N}, assigning each entry equal weight 1/N. An empty or
    multi-dimensional vector raises MalformedPartition."""
    vals = np.asarray(s, dtype=float)
    return PiecewiseConstantFn(np.linspace(0.0, 1.0, vals.size + 1), vals)


def merge_breakpoints(f: PiecewiseConstantFn, g: PiecewiseConstantFn) -> np.ndarray:
    """Common refinement of two partitions: their sorted union with
    near-duplicates (within MERGE_TOL) coalesced and the endpoints pinned
    to exactly 0 and 1."""
    points = np.union1d(f.breakpoints, g.breakpoints)
    keep = np.empty(points.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(points) > MERGE_TOL
    merged = points[keep]
    merged[0] = 0.0
    merged[-1] = 1.0
    return merged


def l2_distance(f: PiecewiseConstantFn, g: PiecewiseConstantFn) -> float:
    """Exact L2 distance sqrt(integral of (f - g)^2)."""
    grid = merge_breakpoints(f, g)
    diff = f.resample(grid) - g.resample(grid)
    # a pairwise sum, not a BLAS dot, so the distance does not depend on
    # the BLAS thread count
    return float(np.sqrt((np.diff(grid) * diff * diff).sum()))


def cell_integrals(f: PiecewiseConstantFn, boundaries: np.ndarray) -> np.ndarray:
    """Exact integrals of f over each cell of a partition of [0, 1].

    ``boundaries`` must be an increasing array starting at 0 and ending at 1;
    it need not be related to f's own breakpoints. A cell's integral is f's
    cumulative integral read at its two ends, without a merged partition:
    the pieces from the one holding its left end to the one before the one
    holding its right end, less the part of the first left of the cell,
    plus the part of the last inside it. The pieces are summed directly,
    not as a difference of running sums, so a cell whose ends are
    breakpoints of f gets exactly the sum of its pieces.
    """
    bp, vals = f.breakpoints, f.values
    j = np.searchsorted(bp, boundaries, side="right") - 1  # j[-1] = n
    # the part of piece j left of each boundary; 0 at x = 1
    head = (boundaries - bp[j]) * np.append(vals, 0.0)[j]
    pieces = np.add.reduceat(np.diff(bp) * vals, j[:-1])
    return np.where(j[1:] > j[:-1], pieces, 0.0) + np.diff(head)
