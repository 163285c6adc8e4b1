"""Random network generation from a kernel and finite-game equilibria.

Randomness contract
-------------------
All draws come from numpy's counter-based Philox generator keyed by a
``SeedSequence``. For a given seed the draw order is fixed:

1. the N agent labels, as one uniform block, then sorted ascending;
2. the N(N-1)/2 edge draws, in row-major upper-triangle order (pairs
   (0,1), (0,2), ..., (N-2,N-1)), one 64-bit Philox word x per pair, so
   the words of row i begin at offset o = N + sum_{k<i} (N-1-k) of the
   stream.

Pair (i, j) is an edge when u < W(t_i, t_j) for the uniform
u = (x >> 11) * 2^-53 that ``Generator.random`` makes of its word. The
sampler decides it on the integer: u < p holds exactly when
(x >> 11) < ceil(p * 2^53), for every p in [0, 1], so comparing the
shifted raw word with that threshold makes the same decision as comparing
the uniform, without forming it.

The edges are drawn in blocks of whole rows of about equal pair counts.
Philox is counter-based, so a block starting at row i draws on its own: it
keys a fresh bit generator with the same ``SeedSequence``, calls
``Philox.advance(o // 4)`` (one counter step yields four 64-bit words) and
discards ``o % 4`` words. Each pair gets the word it would get if all of
them were drawn as one block, whatever the block size and whichever
thread draws it. The blocks run on a thread pool sized to the CPUs the
process may run on; the thread count changes no value.

This makes a sampled network a pure function of (kernel, N, seed),
bit-identical across platforms, thread counts and block sizes.

Storage
-------
A network is held only as its edges: the strict upper triangle U of the
adjacency (pairs i < j, each edge once) as a scipy CSR matrix with float64
ones. scipy.sparse is imported when the first network is built or read,
not with this module, so work that builds no network never loads it. Each
row block turns its words into edges by runs of columns in one kernel
cell, where the edge threshold is constant, and keeps only its row counts
and columns. ``EDGE_BLOCK_PAIRS`` bounds the pairs of all blocks in
flight together (plus one row per block), so the sampler's working memory
beyond U grows neither with N nor with the thread count.

A block's one fresh per-pair array is its raw words (8 bytes a pair):
``random_raw`` takes no output buffer. Its thresholds (8 bytes) and hit
flags (1 byte) go to two buffers that the drawing thread keeps for its life
(``threading.local``), grown to the largest block it has drawn: at most one
thread's share of the budget plus a row, at 9 bytes a pair: 1.2 MB a
thread when two share the default budget. The next block on that thread
reuses their pages: arrays of that size allocated per block are handed
back to the OS when freed and faulted in again by the next block.

A network whose pairs fit one thread's share of that budget is one block
on the calling thread. The blocks of a larger one run on one thread pool
kept for the process, started on first use; a forked child, or a changed
thread count, starts a fresh one.

The finite-game solve applies P = U + U^T as the two sparse products
U s + U^T s, by conjugate gradients on a certified interior game and by the
equilibrium module's projected loop otherwise, so no N x N array is formed
anywhere between sampling and the equilibrium.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .equilibrium import (DEFAULT_MAX_ITER, DEFAULT_TOL, Equilibrium,
                          _project, _recorder)
from .errors import NoConvergence, NotAContraction
from .functionspace import PiecewiseConstantFn, interpolate_equilibrium
from .game import LQAffine
from .graphon import Graphon

if TYPE_CHECKING:
    import scipy.sparse as sp

# Pair budget of the edge sampler's row blocks in flight together, plus a
# row per block, whatever the network size and thread count. It also bounds
# the buffers each drawing thread keeps (9 bytes a pair): one thread's share
# of it plus a row.
EDGE_BLOCK_PAIRS = 1 << 18

# Relative accuracy of the spectral contraction check's eigensolve.
SPECTRAL_RTOL = 1e-8


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


def sample_network(g: Graphon, n: int, seed: int) -> SampledNetwork:
    """Draw an n-agent network: uniform labels, then an edge between each
    pair (i, j), i < j, with probability W(t_i, t_j)."""
    if n < 1:
        raise ValueError("need at least one agent")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    labels = np.sort(rng.random(n))
    cells = g.cell_index(labels)
    # agents cut[c]..cut[c+1]-1 hold cell c: labels are sorted
    cut = np.searchsorted(cells, np.arange(g.pi.size + 1))
    # before[i] pairs precede row i, which pairs with columns i+1..n-1
    before = np.arange(n + 1)
    before = before * (2 * n - 1 - before) // 2
    # u < p exactly when (x >> 11) < ceil(p * 2^53): see the module docstring
    thresholds = np.ceil(g.q * 2.0 ** 53).astype(np.uint64)
    block = partial(_edge_block, seed, thresholds, cells, cut, before)
    # row blocks of equal pair counts, each at most a row over its share
    workers = _workers()
    share = max(1, EDGE_BLOCK_PAIRS // workers)
    starts = np.searchsorted(before, np.arange(0, before[-1], share))
    bounds = np.union1d(starts, [0, n])
    if workers > 1 and bounds.size > 2:
        blocks = list(_pool(workers).map(block, bounds[:-1], bounds[1:]))
    else:
        blocks = list(map(block, bounds[:-1], bounds[1:]))
    counts, cols = map(np.concatenate, zip(*blocks))
    del blocks  # hold the columns once before U's data is allocated
    return SampledNetwork(labels=labels, upper=_upper_csr(counts, cols),
                          seed=int(seed), graphon=g)


def _workers() -> int:
    """Threads of the edge sampler: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The edge sampler's thread pool, as ((process id, threads), pool).
_kept_pool = None


def _pool(threads: int) -> ThreadPoolExecutor:
    """The kept pool of ``threads`` threads, started on first use. A forked
    child, which has none of its parent's threads, and a changed thread
    count each start a fresh pool. A replaced pool, or a second one started
    by a racing thread, ends its threads once no caller holds it."""
    global _kept_pool
    key = (os.getpid(), threads)
    if _kept_pool is None or _kept_pool[0] != key:
        _kept_pool = key, ThreadPoolExecutor(threads)
    return _kept_pool[1]


def _edge_block(seed, thresholds, cells, cut, before, start: int, stop: int):
    """Edges of rows start..stop-1, as (row counts, columns). A pure
    function of the seed and the rows: it reads the seed's Philox stream
    from the offset where these rows' words begin."""
    n = cells.size
    rows = np.arange(start, stop)
    offset = n + int(before[start])  # the n labels come first
    bits = np.random.Philox(np.random.SeedSequence(seed))
    bits.advance(offset // 4)  # one counter step is four 64-bit words
    bits.random_raw(offset % 4)
    # row i meets cell c in a run of constant threshold T[c_i, c]
    first = rows[:, None] + 1
    runs = np.maximum(cut[1:], first) - np.maximum(cut[:-1], first)
    m = int(before[stop] - before[start])
    thr = _kept("thresholds", np.uint64, m)
    thr[:] = np.repeat(thresholds[cells[rows]].ravel(), runs.ravel())
    words = bits.random_raw(m)  # the block's one fresh per-pair array
    words >>= 11
    hit = np.less(words, thr, out=_kept("hit", bool, m))
    del words
    hits = np.flatnonzero(hit)
    pairs = before[start:stop + 1] - before[start]
    counts = np.diff(np.searchsorted(hits, pairs))
    hits -= np.repeat(pairs[:-1] - first[:, 0], counts)  # pair -> column
    return counts, hits.astype(_index_dtype(n))


# Each thread's edge-block buffers, as attributes named after them.
_buffers = threading.local()


def _kept(name: str, dtype, size: int) -> np.ndarray:
    """The first ``size`` entries of this thread's buffer ``name``, grown
    to ``size`` if it is smaller. Kept for the thread's life, so a block
    reuses the pages of the one before it on the same thread."""
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_buffers, name, buf)
    return buf[:size]


def _index_dtype(n: int):
    """CSR index type for an n-agent network: int32 unless n * n, which
    bounds its edge count, needs int64 (scipy's ``get_index_dtype`` rule,
    decided here so that the drawing threads load no scipy)."""
    return np.int32 if n * n < 2 ** 31 else np.int64


def _upper_csr(row_counts, cols) -> sp.csr_array:
    """The CSR matrix with ones at the given columns, row by row:
    ``row_counts[i]`` entries in row i, taken in order from ``cols``."""
    import scipy.sparse as sp  # loaded by the first network, not on import

    n = row_counts.size
    index = _index_dtype(n)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(row_counts, out=indptr[1:])
    return sp.csr_array((np.ones(cols.size), cols.astype(index, copy=False),
                         indptr), shape=(n, n))


def network_spectral_radius(net: SampledNetwork) -> float:
    """Largest eigenvalue of the scaled adjacency P/N, to relative
    accuracy ``SPECTRAL_RTOL``.

    Lanczos (ARPACK ``eigsh``) for the largest algebraic eigenvalue, started
    from the constant vector; it stays correct when the extreme eigenvalues
    tie in magnitude, as on bipartite networks.
    """
    # imported here: every sbm4 and grid network is certified by row sums,
    # and loading ARPACK costs about 30 ms and 10 MB
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = net.n_agents
    if net.upper.nnz == 0:
        return 0.0  # ARPACK rejects a start vector that P maps to zero
    try:
        lam = eigsh(net.adjacency, k=1, which="LA",
                    v0=np.ones(n), tol=SPECTRAL_RTOL, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"network eigensolve did not converge: {exc}") from None
    return float(lam[0]) / n


def _contraction_certificate(net: SampledNetwork, upper_t,
                             th2) -> tuple[str, float]:
    """The cheapest check that admits the best-response map as a
    contraction, and its margin, with ``upper_t`` the transpose of
    ``net.upper``. Raises NotAContraction when none does."""
    n = net.n_agents
    # P 1, exact: row i of U counts i's edges to later agents, read off the
    # CSR structure; column i its edges to earlier ones, one sparse product
    # (np.bincount of the columns would copy them to int64, 8 bytes an edge)
    degrees = np.diff(net.upper.indptr) + upper_t @ np.ones(n)
    margin = 1.0 - float(np.max(np.abs(th2) * degrees)) / n
    if margin > 0.0:
        return "row_sum", margin
    margin = 1.0 - float(np.max(np.abs(th2))) * network_spectral_radius(net)
    if margin > 0.0:
        return "spectral", margin
    raise NotAContraction(
        f"scaled network spectral radius leaves margin {margin}"
    )


def solve_network_game(net: SampledNetwork, spec: LQAffine, eta,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER,
                       pi=None) -> Equilibrium:
    """Equilibrium of the finite game on a sampled network: the graphon game
    on its empirical kernel P / N, to sup-norm error ``tol``.

    Agent i's heterogeneity is the game's per-cell pair
    (:meth:`LQAffine.cell_thetas`, which checks ``eta`` against the box) at
    the cell of ``net.graphon`` holding its label t_i. ``pi`` is ignored.
    P = U + U^T is applied as two sparse products on ``net.upper``.

    Before solving, the network must pass one of two contraction checks,
    tried in this order:

    1. ``"row_sum"``: max_i |theta2_i| deg_i / N < 1. This is the
       infinity-norm of diag(theta2) P / N; clamping is nonexpansive in the
       sup norm, so the best response contracts by 1 - margin, and the norm
       also bounds the matrix's spectral radius. It needs only the degrees.
    2. ``"spectral"``: max |theta2| * lambda_max(P / N) < 1, by an
       eigensolve, run only when the row-sum check fails.

    ``NotAContraction`` is raised when both fail.

    Two routes solve it:

    * ``"cg"``, tried first when the row-sum check passed and every
      theta2_i > 0: conjugate gradients on the interior system
      (:func:`_interior_cg`), stopped once the best-response residual is at
      most ``tol`` * margin, so that by the contraction the error is at
      most ``tol``. Its result is accepted only if it is interior and its
      projected residual |s - clamp(theta1 + theta2 * (P s) / N)| passes
      the same test.
    * ``"project"`` otherwise, or when CG is not accepted or takes
      ``max_iter`` steps: the projected best response
      s <- clamp(theta1 + theta2 * (P s) / N) iterated from zero until the
      sup-norm change is at most ``tol``. It is the route where a strategy
      bound binds.
    """
    # pi is ignored but kept: perfbench/bench.py still passes it (ROADMAP item 1)
    th1, th2 = spec.cell_thetas(net.graphon, eta)
    cells = net.graphon.cell_index(net.labels)
    th1, th2 = th1[cells], th2[cells]
    n = net.n_agents
    u, ut = net.upper, net.upper.T
    certificate, margin = _contraction_certificate(net, ut, th2)

    def aggregate(x):
        return (u @ x + ut @ x) / n

    record = _recorder(aggregate, th1, th2, spec.strategy_set, certificate,
                       margin)
    if certificate == "row_sum" and np.all(th2 > 0.0):
        found = _interior_cg(aggregate, th1, th2, tol * margin, max_iter)
        if found is not None:
            eq = record(*found, "cg")
            if eq.interior and eq.residual <= tol * margin:
                return eq
    return record(*_project(aggregate, th1, th2, spec.strategy_set, tol,
                            max_iter), "project")


def _interior_cg(aggregate, th1, th2, stop: float, max_iter: int):
    """The interior equilibrium s = theta1 + theta2 * aggregate(s), for a
    symmetric linear ``aggregate`` = A and every theta2 > 0, by conjugate
    gradients. The system is put in the symmetric form
    (diag(1/theta2) - A) s = theta1 / theta2, positive definite when the
    spectral radius of diag(theta2) A is below 1, preconditioned by
    diag(theta2) and started from s = theta1.

    The preconditioned residual theta2 * r is the best-response residual
    theta1 + theta2 * (A s) - s, carried by the CG recursion without a
    further product. Returns (s, steps) once its sup norm is at most
    ``stop``, or None after ``max_iter`` steps without. Inner products are
    numpy's pairwise sums ``(a * b).sum()``, not a BLAS dot, so the result
    does not depend on the BLAS thread count.
    """
    s = th1.copy()
    r = aggregate(s)  # theta1 / theta2 - (s / theta2 - A s) at s = theta1
    y = th2 * r
    p, rho, steps = y, (r * y).sum(), 0
    while np.max(np.abs(y)) > stop:
        if steps == max_iter:
            return None
        steps += 1
        q = p / th2 - aggregate(p)
        alpha = rho / (p * q).sum()
        s += alpha * p
        r -= alpha * q
        y = th2 * r
        rho, previous = (r * y).sum(), rho
        p = y + (rho / previous) * p
    return s, steps


def observe(net: SampledNetwork, eq: Equilibrium) -> PiecewiseConstantFn:
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


def _loadtxt(path, dtype, per_line: int, what: str) -> np.ndarray:
    """The (lines, per_line) array of a text file with ``per_line`` values
    of ``dtype`` on every line; an empty file has no lines. Any other
    file raises ValueError naming it and ``what`` a line must hold."""
    malformed = f"{path}: a line does not hold {what}"
    try:
        with warnings.catch_warnings():
            # an empty file: the caller checks
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, dtype=dtype, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{malformed} ({exc})") from None
    if values.size and values.shape[1] != per_line:
        raise ValueError(malformed)
    return values.reshape(-1, per_line)


def read_network(edges_path, labels_path, g: Graphon) -> SampledNetwork:
    """Read back what :func:`write_network` wrote, as a network on kernel
    ``g``. Raises ValueError unless every labels line holds one label,
    there is at least one, every label lies in [0, 1], the labels are
    sorted ascending, every edge line holds two agent indices and the edges
    are distinct pairs of distinct agents in range. An empty edge file is a
    network without edges."""
    labels = _loadtxt(labels_path, float, 1, "one label")[:, 0]
    if labels.size == 0:
        raise ValueError(f"{labels_path}: no labels")
    if not np.all((labels >= 0.0) & (labels <= 1.0)):
        raise ValueError(f"{labels_path}: a label does not lie in [0, 1]")
    if np.any(np.diff(labels) < 0.0):
        raise ValueError(f"{labels_path}: labels are not sorted ascending")
    n = labels.size
    pairs = _loadtxt(edges_path, np.int64, 2, "two agent indices")
    if pairs.size:
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
