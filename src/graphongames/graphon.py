"""Interaction kernels on [0, 1]^2 and their integral operators.

Three kernel families are supported: a constant kernel, a block kernel with
K communities (intensity matrix Q, community weights pi), and a kernel given
by an M x M matrix on the uniform grid. All three are piecewise constant on
a product partition, so on a step function aligned with that partition the
integral operator is exactly one matrix, :meth:`Graphon.operator_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain


class Graphon:
    """Base class: a symmetric measurable kernel W on [0, 1]^2 taking values
    in [0, 1], piecewise constant on the product of a cell partition with
    itself.

    Subclasses provide :meth:`cell_boundaries` (the partition) and
    :meth:`kernel_matrix` (the per-cell-pair kernel values); everything else
    is shared. Instances are treated as immutable.
    """

    def cell_boundaries(self) -> np.ndarray:
        raise NotImplementedError

    def kernel_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def cell_weights(self) -> np.ndarray:
        return np.diff(self.cell_boundaries())

    def operator_matrix(self) -> np.ndarray:
        """Matrix of the integral operator acting on step functions aligned
        with the cell partition: row i is sum_j K_ij * weight_j * f_j."""
        return self.kernel_matrix() * self.cell_weights()[None, :]

    def cell_index(self, x) -> np.ndarray:
        """Cell of each point. Cells are half-open [left, right) with the
        final cell closed, so x = 1 belongs to the last cell. Raises
        OutOfDomain on any point not in [0, 1], NaN included."""
        xs = np.asarray(x, dtype=float)
        if not np.all((xs >= 0.0) & (xs <= 1.0)):
            raise OutOfDomain("kernel argument outside [0, 1]")
        bounds = self.cell_boundaries()
        idx = np.searchsorted(bounds, xs, side="right") - 1
        return np.clip(idx, 0, bounds.size - 2)

    def __call__(self, x, y):
        """Kernel value W(x, y)."""
        val = self.kernel_matrix()[self.cell_index(x), self.cell_index(y)]
        return float(val) if np.ndim(val) == 0 else val

    def pairwise(self, xs, ys) -> np.ndarray:
        """Matrix of kernel values W(xs_i, ys_j)."""
        i = np.atleast_1d(self.cell_index(xs))
        j = np.atleast_1d(self.cell_index(ys))
        return self.kernel_matrix()[i[:, None], j[None, :]]

    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues in ascending order, orthonormal eigenvectors as
        columns) of the symmetrized cell matrix sqrt(w_i) K_ij sqrt(w_j),
        which shares the integral operator's spectrum: the operator matrix
        is diag(1/sqrt(w)) Q diag(lambda) Q^T diag(sqrt(w)). One dense
        symmetric eigensolve, computed once per instance and cached."""
        if "_eigen" not in self.__dict__:
            root_w = np.sqrt(self.cell_weights())
            sym = self.kernel_matrix() * np.outer(root_w, root_w)
            self._eigen = np.linalg.eigh(sym)
        return self._eigen

    def lambda_max(self) -> float:
        """Largest eigenvalue of the integral operator, the top one of
        :meth:`eigen`."""
        return float(self.eigen()[0][-1])

    def validate(self) -> list[str]:
        """Check structural invariants; returns a list of violations
        (empty when the kernel is valid). Never raises."""
        problems = []
        k = self.kernel_matrix()
        if not np.array_equal(k, k.T):
            problems.append("asymmetric kernel matrix")
        if k.size and (k.min() < 0.0 or k.max() > 1.0):
            problems.append("kernel values outside [0, 1]")
        return problems


@dataclass
class ConstantGraphon(Graphon):
    """W(x, y) = value everywhere."""

    value: float

    def __post_init__(self):
        self.value = float(self.value)

    def cell_boundaries(self) -> np.ndarray:
        return np.array([0.0, 1.0])

    def kernel_matrix(self) -> np.ndarray:
        return np.array([[self.value]])


@dataclass
class SBMGraphon(Graphon):
    """Block kernel: W(x, y) = Q_ij for x in community i, y in community j.

    Community k occupies the interval [sum_{l<k} pi_l, sum_{l<=k} pi_l),
    half-open except for the final community, which is closed at 1.
    """

    q: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("intensity matrix must be square")
        if pi.ndim != 1 or pi.size != q.shape[0]:
            raise ValueError("community weights must match the matrix size")
        self.q = q
        self.pi = pi

    @property
    def n_communities(self) -> int:
        return self.pi.size

    def cell_boundaries(self) -> np.ndarray:
        bounds = np.concatenate([[0.0], np.cumsum(self.pi)])
        bounds[-1] = 1.0
        return bounds

    def cell_weights(self) -> np.ndarray:
        return self.pi

    def kernel_matrix(self) -> np.ndarray:
        return self.q

    def validate(self) -> list[str]:
        problems = super().validate()
        if np.any(self.pi <= 0.0):
            problems.append("community weights must be positive")
        if abs(self.pi.sum() - 1.0) > 1e-12:
            problems.append(
                f"community weights are not a simplex (sum = {self.pi.sum()!r})"
            )
        return problems


@dataclass
class GridGraphon(Graphon):
    """Kernel given by an M x M matrix of values on the uniform M-cell grid."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("grid kernel matrix must be square")
        self.matrix = m

    @property
    def resolution(self) -> int:
        return self.matrix.shape[0]

    def cell_boundaries(self) -> np.ndarray:
        """The uniform grid, computed once per instance and cached
        read-only, like :meth:`Graphon.eigen`."""
        if "_bounds" not in self.__dict__:
            self._bounds = np.linspace(0.0, 1.0, self.resolution + 1)
            self._bounds.flags.writeable = False
        return self._bounds

    def kernel_matrix(self) -> np.ndarray:
        return self.matrix

    @classmethod
    def from_csv(cls, path) -> "GridGraphon":
        """Load an M x M comma-separated matrix of kernel values."""
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))

    @classmethod
    def from_kernel(cls, graphon: Graphon, resolution: int = 1000) -> "GridGraphon":
        """Rasterize another kernel by sampling at cell centers. Exact when
        the grid refines the source kernel's partition."""
        centers = (np.arange(resolution) + 0.5) / resolution
        return cls(graphon.pairwise(centers, centers))
