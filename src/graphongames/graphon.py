"""Interaction kernels on [0, 1]^2 and their integral operators.

Every kernel is a step graphon, one value :class:`Graphon`: a symmetric
matrix q on the cells of a partition of [0, 1] with weights pi. A K-block
model is a K-cell kernel, a constant kernel has one cell and an M x M grid
kernel M equal cells; :class:`ConstantGraphon` and :class:`GridGraphon`
only fill in (q, pi). On a step function aligned with the partition the
integral operator is one matrix, :meth:`Graphon.operator_matrix`.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomain


class Graphon:
    """The kernel W(x, y) = q[i, j] for x in cell i and y in cell j, cell k
    being the interval [sum_{l<k} pi_l, sum_{l<=k} pi_l), half-open except
    for the final cell, which is closed at 1.

    Checked once at construction: q is square, symmetric and inside
    [0, 1], and pi is positive, has one entry per cell and sums to 1 within
    1e-12; anything else raises ValueError. q, pi and the cell bounds
    ``bounds`` are stored read-only.
    """

    def __init__(self, q, pi):
        q = np.array(q, dtype=float)
        pi = np.array(pi, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("kernel matrix must be square")
        if pi.shape != q.shape[:1]:
            raise ValueError("cell weights must match the matrix size")
        # written so that NaN fails every comparison
        if not np.all((q >= 0.0) & (q <= 1.0)):
            raise ValueError("kernel values outside [0, 1]")
        if not np.array_equal(q, q.T):
            raise ValueError("asymmetric kernel matrix")
        if not np.all(pi > 0.0):
            raise ValueError("cell weights must be positive")
        if not abs(pi.sum() - 1.0) <= 1e-12:
            raise ValueError(f"cell weights are not a simplex (sum = {pi.sum()!r})")
        bounds = np.concatenate([[0.0], np.cumsum(pi)])
        bounds[-1] = 1.0
        for a in (q, pi, bounds):
            a.flags.writeable = False
        self.q, self.pi, self.bounds = q, pi, bounds

    def operator_matrix(self) -> np.ndarray:
        """Matrix of the integral operator acting on step functions aligned
        with the cell partition: row i is sum_j q_ij * pi_j * f_j."""
        return self.q * self.pi[None, :]

    def cell_index(self, x) -> np.ndarray:
        """Cell of each point. Cells are half-open [left, right) with the
        final cell closed, so x = 1 belongs to the last cell. Raises
        OutOfDomain on any point not in [0, 1], NaN included."""
        xs = np.asarray(x, dtype=float)
        if not np.all((xs >= 0.0) & (xs <= 1.0)):
            raise OutOfDomain("kernel argument outside [0, 1]")
        idx = np.searchsorted(self.bounds, xs, side="right") - 1
        return np.clip(idx, 0, self.pi.size - 1)

    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues in ascending order, orthonormal eigenvectors as
        columns) of the symmetrized cell matrix sqrt(w_i) K_ij sqrt(w_j),
        which shares the integral operator's spectrum: the operator matrix
        is diag(1/sqrt(w)) Q diag(lambda) Q^T diag(sqrt(w)). One dense
        symmetric eigensolve, computed once per instance and cached."""
        if "_eigen" not in self.__dict__:
            root_w = np.sqrt(self.pi)
            self._eigen = np.linalg.eigh(self.q * np.outer(root_w, root_w))
        return self._eigen

    def lambda_max(self) -> float:
        """Largest eigenvalue of the integral operator, the top one of
        :meth:`eigen`."""
        return float(self.eigen()[0][-1])


class ConstantGraphon(Graphon):
    """W(x, y) = value everywhere: the one-cell kernel."""

    def __init__(self, value: float):
        super().__init__([[value]], [1.0])


class GridGraphon(Graphon):
    """Kernel given by an M x M matrix of values on the uniform M-cell grid."""

    def __init__(self, matrix):
        m = np.atleast_1d(np.asarray(matrix, dtype=float))
        super().__init__(m, np.diff(np.linspace(0.0, 1.0, len(m) + 1)))

    @classmethod
    def from_csv(cls, path) -> "GridGraphon":
        """Load an M x M comma-separated matrix of kernel values."""
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))
