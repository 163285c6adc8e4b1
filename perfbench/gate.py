"""Correctness gate. Each check returns a list of problems; the benchmark
reports ``correct: false`` and exits nonzero when any list is non-empty.

Results CSV bytes are deliberately not compared: estimates may move within
solver tolerance from one version to the next.
"""

from __future__ import annotations

import hashlib
from itertools import pairwise

import numpy as np
import scipy.sparse as sp

from graphongames import fd_check, sample_network

from summary import err_inf_median

# Limits the test suite applies to the analytic derivatives.
FD_LIMITS = {1: 1e-5, 2: 1e-4}

# Determinism contract: a network is a pure function of (kernel, N, seed).
# Recorded from the sbm4 kernel of configs/sbm4.yaml.
DIGEST_N = 200
DIGEST_SEED = 20240405
NETWORK_DIGEST = "7d3f4c3ac39ef43888bcc592131f4de2a37597c20c9af095be8350812cef9289"


def network_digest(net) -> str:
    """SHA-256 of the labels and the sorted upper-triangle edge list,
    independent of how the adjacency is stored."""
    upper = sp.coo_matrix(sp.triu(net.adjacency, k=1))
    keep = upper.data != 0
    rows, cols = upper.row[keep], upper.col[keep]
    order = np.lexsort((cols, rows))
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(net.labels, dtype="<f8").tobytes())
    h.update(np.stack([rows[order], cols[order]]).astype("<i8").tobytes())
    return h.hexdigest()


def check_digest(sbm4_graphon) -> list[str]:
    got = network_digest(sample_network(sbm4_graphon, DIGEST_N, DIGEST_SEED))
    if got != NETWORK_DIGEST:
        return [f"network digest for N={DIGEST_N}, seed={DIGEST_SEED} is {got}"]
    return []


def check_fd(g, game, eta) -> list[str]:
    problems = []
    for order, limit in FD_LIMITS.items():
        err = fd_check(g, game, eta, order=order)
        if not err <= limit:
            problems.append(f"fd_check order {order} is {err:.3g} > {limit:g}")
    return problems


def check_residuals(equilibria, tol: float) -> list[str]:
    return [
        f"finite-game residual {eq.residual:.3g} > tol {tol:g}"
        for eq in equilibria
        if not eq.residual <= tol
    ]


def check_err_decreasing(records) -> list[str]:
    sizes = sorted({r.n for r in records})
    medians = [err_inf_median(records, n) for n in sizes]
    for (n0, e0), (n1, e1) in pairwise(zip(sizes, medians)):
        if not e1 < e0:
            return [f"median err_inf does not decrease from N={n0} ({e0:.4g}) "
                    f"to N={n1} ({e1:.4g})"]
    return []


def check_replay(untraced, replayed) -> list[str]:
    return [
        f"traced eta_hat differs at N={a.n}, run {a.run}"
        for a, b in zip(untraced, replayed, strict=True)
        if not np.array_equal(a.eta_hat, b.eta_hat, equal_nan=True)
    ]
