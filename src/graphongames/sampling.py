"""Random network generation from a kernel and finite-game equilibria.

Randomness contract
-------------------
All draws come from numpy's counter-based Philox generator keyed by a
``SeedSequence``. For a given seed the draw order is fixed:

1. the N agent labels, as one uniform block, then sorted ascending;
2. the N(N-1)/2 edge uniforms, consumed in row-major upper-triangle order
   (pairs (0,1), (0,2), ..., (N-2,N-1)). They are drawn in blocks of whole
   rows, at most ``EDGE_BLOCK_PAIRS`` pairs' worth of probabilities at a
   time. Successive draws continue the same stream, so each pair gets the
   same uniform as if all of them were drawn as one block.

This makes a sampled network a pure function of (kernel, N, seed),
bit-identical across platforms, thread counts and block sizes.

Storage
-------
A network is held only as its edges: the strict upper triangle U of the
adjacency (pairs i < j, each edge once) as a scipy CSR matrix with float64
ones, filled row block by row block as the edges are drawn. The finite-game
solver applies P = U + U^T as the two sparse products U s + U^T s, so no
N x N array is formed anywhere between sampling and the equilibrium.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import NoConvergence, NotAContraction
from .functionspace import PiecewiseConstantFn, interpolate_equilibrium
from .game import GameSpec
from .graphon import Graphon

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# Pair budget of one row block of the edge sampler: bounds its
# probability matrix at 2 MiB whatever the network size.
EDGE_BLOCK_PAIRS = 1 << 18


@dataclass
class SampledNetwork:
    """A 0-1 network drawn from a kernel.

    ``labels`` are the sorted agent positions in [0, 1]; ``upper`` is the
    strict upper triangle of the adjacency as an N x N CSR matrix of
    float64 ones, each edge stored once as (i, j) with i < j; ``seed`` is
    the integer the generator was keyed with (None for networks read back
    from files); ``graphon`` is the kernel whose cells the labels index, so
    a game reads each agent's heterogeneity at its label's cell.
    """

    labels: np.ndarray
    upper: sp.csr_array
    seed: int | None
    graphon: Graphon

    @property
    def n_agents(self) -> int:
        return self.labels.size

    @property
    def adjacency(self) -> sp.csr_array:
        """The symmetric hollow 0-1 adjacency U + U^T, as a new CSR matrix
        on each call."""
        return self.upper + self.upper.T


@dataclass
class NetworkEquilibrium:
    """Equilibrium of a finite network game.

    ``certificate`` names the contraction check that admitted the network
    (``"row_sum"`` or ``"spectral"``) and ``contraction_margin`` is the
    margin it found, 1 minus the bound, always positive.
    """

    strategies: np.ndarray
    aggregates: np.ndarray
    interior: bool
    iterations: int
    residual: float
    certificate: str
    contraction_margin: float


def sample_network(g: Graphon, n: int, seed: int) -> SampledNetwork:
    """Draw an n-agent network: uniform labels, then an edge between each
    pair (i, j), i < j, with probability W(t_i, t_j)."""
    if n < 1:
        raise ValueError("need at least one agent")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    labels = np.sort(rng.random(n))
    cells = g.cell_index(labels)
    kernel = g.kernel_matrix()
    index = _index_dtype(n)
    rows = max(1, EDGE_BLOCK_PAIRS // n)
    counts, cols = [], []
    for start in range(0, n, rows):
        stop, width = min(start + rows, n), n - start
        # columns start.. of rows start..stop-1; pairs i < j in row-major order
        pairs = np.arange(width) > np.arange(stop - start)[:, None]
        probs = np.take(kernel[cells[start:stop]], cells[start:], axis=1)[pairs]
        hits = np.zeros(pairs.shape, dtype=bool)
        hits[pairs] = rng.random(probs.size) < probs
        r, c = divmod(np.flatnonzero(hits), width)
        counts.append(np.bincount(r, minlength=stop - start))
        cols.append((c + start).astype(index))
    upper = _upper_csr(np.concatenate(counts), np.concatenate(cols))
    return SampledNetwork(labels=labels, upper=upper, seed=int(seed),
                          graphon=g)


def _index_dtype(n: int):
    """CSR index type for an n-agent network: int32 unless n * n, which
    bounds its edge count, needs int64."""
    return sp.get_index_dtype(maxval=n * n)


def _upper_csr(row_counts, cols) -> sp.csr_array:
    """The CSR matrix with ones at the given columns, row by row:
    ``row_counts[i]`` entries in row i, taken in order from ``cols``."""
    n = row_counts.size
    index = _index_dtype(n)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(row_counts, out=indptr[1:])
    return sp.csr_array((np.ones(cols.size), cols.astype(index, copy=False),
                         indptr), shape=(n, n))


def network_spectral_radius(net: SampledNetwork, rtol: float = 1e-8) -> float:
    """Largest eigenvalue of the scaled adjacency P/N, to relative
    accuracy ``rtol``.

    Lanczos (ARPACK ``eigsh``) for the largest algebraic eigenvalue, started
    from the constant vector; it stays correct when the extreme eigenvalues
    tie in magnitude, as on bipartite networks.
    """
    n = net.n_agents
    if net.upper.nnz == 0:
        return 0.0  # ARPACK rejects a start vector that P maps to zero
    try:
        lam = eigsh(net.adjacency, k=1, which="LA",
                    v0=np.ones(n), tol=rtol, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"network eigensolve did not converge: {exc}") from None
    return float(lam[0]) / n


def _contraction_certificate(net: SampledNetwork, th2) -> tuple[str, float]:
    """The cheapest check that admits the best-response map as a
    contraction, and its margin. Raises NotAContraction when none does."""
    n, upper, ones = net.n_agents, net.upper, np.ones(net.n_agents)
    degrees = upper @ ones + upper.T @ ones  # P 1, exact in float64
    margin = 1.0 - float(np.max(np.abs(th2) * degrees)) / n
    if margin > 0.0:
        return "row_sum", margin
    margin = 1.0 - float(np.max(np.abs(th2))) * network_spectral_radius(net)
    if margin > 0.0:
        return "spectral", margin
    raise NotAContraction(
        f"scaled network spectral radius leaves margin {margin}"
    )


def solve_network_game(net: SampledNetwork, spec: GameSpec, eta,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER,
                       pi=None, method: str = "iterate") -> NetworkEquilibrium:
    """Equilibrium of the finite game on a sampled network.

    Agent i's heterogeneity is the game's per-cell pair
    (:meth:`GameSpec.cell_thetas`, which checks ``eta`` against the box) at
    the cell of ``net.graphon`` holding its label t_i. ``pi`` is ignored. With
    ``method="iterate"`` the projected best response
    s <- clamp(theta1 + theta2 * (P s) / N) is iterated from zero to
    sup-norm tolerance ``tol``; with ``method="direct"`` the interior linear
    system (I - diag(theta2) P / N) s = theta1 is solved instead. The two
    agree (to 10 * tol) whenever no strategy bound binds.

    Before solving, the network must pass one of two contraction checks,
    tried in this order:

    1. ``"row_sum"``: max_i |theta2_i| deg_i / N < 1. This is the
       infinity-norm of diag(theta2) P / N; clamping is nonexpansive in the
       sup norm, so the iteration contracts, and the norm also bounds the
       matrix's spectral radius. It needs only the degrees.
    2. ``"spectral"``: max |theta2| * lambda_max(P / N) < 1, by an
       eigensolve, run only when the row-sum check fails.

    ``NotAContraction`` is raised when both fail. The iteration applies
    P = U + U^T as two sparse products on ``net.upper``; ``method="direct"``
    densifies P and costs O(N^3), so it serves as a test oracle.
    """
    # pi is ignored but kept: perfbench/bench.py still passes it (ROADMAP item 1)
    th1, th2 = spec.cell_thetas(net.graphon, eta)
    cells = net.graphon.cell_index(net.labels)
    th1, th2 = th1[cells], th2[cells]
    n = net.n_agents
    certificate, margin = _contraction_certificate(net, th2)
    u, ut = net.upper, net.upper.T
    lo, hi = spec.strategy_set.lower, spec.strategy_set.upper
    if method == "direct":
        system = np.eye(n) - (th2[:, None] / n) * net.adjacency.toarray()
        s = np.linalg.solve(system, th1)
        iterations = 0
    elif method == "iterate":
        s = np.zeros(n)
        for iterations in range(1, max_iter + 1):
            s_new = np.clip(th1 + th2 * (u @ s + ut @ s) / n, lo, hi)
            delta = float(np.max(np.abs(s_new - s)))
            s = s_new
            if delta <= tol:
                break
        else:
            raise NoConvergence(
                f"network best-response iteration did not reach tol={tol}"
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    z = (u @ s + ut @ s) / n
    residual = float(np.max(np.abs(s - np.clip(th1 + th2 * z, lo, hi))))
    return NetworkEquilibrium(
        strategies=s,
        aggregates=z,
        interior=spec.strategy_set.is_interior(s),
        iterations=iterations,
        residual=residual,
        certificate=certificate,
        contraction_margin=margin,
    )


def observe(net: SampledNetwork, eq: NetworkEquilibrium) -> PiecewiseConstantFn:
    """The observation a planner works with: the equilibrium vector embedded
    as a step function on the regular grid, agents in label-sorted order."""
    return interpolate_equilibrium(eq.strategies)


def write_network(net: SampledNetwork, edges_path, labels_path) -> None:
    """Export for debugging and cross-implementation comparison: an edge
    list ("i j" per line, 0-indexed, i < j, in row-major order) and one
    label per line."""
    indptr, indices = net.upper.indptr, net.upper.indices
    with open(edges_path, "w", newline="\n") as fh:
        for i in range(net.n_agents):
            row = indices[indptr[i]:indptr[i + 1]]
            fh.writelines(f"{i} {j}\n" for j in row.tolist())
    with open(labels_path, "w", newline="\n") as fh:
        for t in net.labels:
            fh.write(f"{t:.17g}\n")


def read_network(edges_path, labels_path, g: Graphon) -> SampledNetwork:
    """Read back what :func:`write_network` wrote, as a network on kernel
    ``g``. Raises ValueError unless there is at least one label, every label
    lies in [0, 1], the labels are sorted ascending and the edges are
    distinct pairs of distinct agents in range."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty: caught below
        labels = np.atleast_1d(np.loadtxt(labels_path, dtype=float))
    if labels.size == 0:
        raise ValueError(f"{labels_path}: no labels")
    if not np.all((labels >= 0.0) & (labels <= 1.0)):
        raise ValueError(f"{labels_path}: a label does not lie in [0, 1]")
    if np.any(np.diff(labels) < 0.0):
        raise ValueError(f"{labels_path}: labels are not sorted ascending")
    n = labels.size
    with open(edges_path) as fh:
        tokens = fh.read().split()
    if len(tokens) % 2:
        raise ValueError(f"{edges_path}: odd number of agent indices")
    pairs = np.array(tokens, dtype=np.int64).reshape(-1, 2)
    if tokens:
        if pairs.min() < 0 or pairs.max() >= n:
            raise ValueError(f"{edges_path}: agent index outside 0..{n - 1}")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError(f"{edges_path}: self-loop")
    # each pair as (i, j) with i < j, keyed i * n + j: row-major once sorted
    i, j = pairs.T
    keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError(f"{edges_path}: duplicate pair")
    rows, cols = divmod(keys, n)
    upper = _upper_csr(np.bincount(rows, minlength=n), cols)
    return SampledNetwork(labels=labels, upper=upper, seed=None, graphon=g)
