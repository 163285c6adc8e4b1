"""Shared fixtures: the four-community benchmark instance used throughout
the suite, a couple of small hand-checkable games, the benchmark's
100-cell grid kernel, and a runner for code that must start in a fresh
interpreter."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import graphongames
from graphongames import (
    Graphon,
    GridGraphon,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    PiecewiseConstantFn,
    StrategySet,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Four-community benchmark: strong diagonal blocks, weak nearest-neighbour
# coupling, equal community weights.
Q4 = np.array(
    [
        [0.9, 0.05, 0.0, 0.0],
        [0.05, 0.2, 0.05, 0.0],
        [0.0, 0.05, 0.2, 0.05],
        [0.0, 0.0, 0.05, 0.8],
    ]
)
PI4 = np.full(4, 0.25)
ETA4 = np.array([0.8, 0.6, 1.0, 0.8])

# Two-community instance small enough to solve by hand.
Q2 = np.array([[0.8, 0.2], [0.2, 0.4]])
PI2 = np.array([0.5, 0.5])


def smooth_grid_kernel(m=100):
    """The benchmark's grid kernel: W(x, y) = 0.8 exp(-3 |x - y|)
    (0.4 + 0.6 sqrt(x y)) at cell centres."""
    c = (np.arange(m) + 0.5) / m
    return GridGraphon(0.8 * np.exp(-3.0 * np.abs(c[:, None] - c[None, :]))
                       * (0.4 + 0.6 * np.sqrt(np.outer(c, c))))


def lu_resolvent(a, maps, eta, order):
    """The resolvent identities by LU on the cells of an operator matrix
    ``a`` (a kernel's, or P / N on a network), with ``maps`` = (b1, D1, b2,
    D2) the game's affine maps read at those cells: the dense reference for
    the kernel solver and for the finite game. Returns (s, z[, gradient[,
    hessian]]); the hessian (n_params, n_params, n_cells) solves
    V d2s_ij = D2_i (A ds_j) + D2_j (A ds_i) for each pair i <= j, all in
    one solve, and mirrors it, so it is exactly symmetric."""
    eta = np.asarray(eta, dtype=float)
    b1, d1, b2, d2 = maps
    v = np.eye(a.shape[0]) - (b2 + d2 @ eta)[:, None] * a
    s = np.linalg.solve(v, b1 + d1 @ eta)
    z = a @ s
    grad = np.linalg.solve(v, d1 + d2 * z[:, None])
    if order < 2:
        return (s, z, grad)[:2 + order]
    ag = a @ grad
    i, j = np.triu_indices(eta.size)
    hess = np.empty((eta.size, eta.size, s.size))
    hess[i, j] = hess[j, i] = np.linalg.solve(
        v, d2[:, i] * ag[:, j] + d2[:, j] * ag[:, i]).T
    return s, z, grad, hess


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with arguments ``args`` in a fresh interpreter, from
    the repository root, with this package's source first on its path; its
    output is captured as text. Start-up and lazy-import checks need an
    interpreter that no test has loaded modules into."""
    src = os.path.dirname(os.path.dirname(graphongames.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=ROOT, capture_output=True, text=True)


def rasterize(g, m):
    """The grid kernel of ``g`` read at the centres of m equal cells: exact
    when the grid refines ``g``'s partition."""
    c = g.cell_index((np.arange(m) + 0.5) / m)
    return GridGraphon(g.q[np.ix_(c, c)])


def shifted(f, c):
    """The step function f + c, on f's partition."""
    return PiecewiseConstantFn(f.breakpoints, f.values + c)


def wide_homogeneous(upper=50.0, eta2_max=2.0):
    """A homogeneous game with strategy set [0, upper] and parameter box
    [0, 3] x [0, eta2_max]."""
    return LQHomogeneous(
        strategy_set=StrategySet(0.0, upper),
        xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, eta2_max])),
    )


def random_block_kernel(k, seed):
    """A k-community block kernel with uniform random symmetric intensities
    and Dirichlet weights, and the generator that drew it."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, size=(k, k))
    return Graphon((q + q.T) / 2, rng.dirichlet(np.ones(k))), rng


@pytest.fixture(scope="session")
def sbm4():
    return Graphon(Q4, PI4)


@pytest.fixture(scope="session")
def sbm4_game():
    return LQSBM(
        theta1=1.0,
        strategy_set=StrategySet(0.0, 10.0),
        xi=ParameterBox(np.full(4, 0.01), np.full(4, 1.2)),
    )


@pytest.fixture(scope="session")
def sbm2():
    return Graphon(Q2, PI2)


@pytest.fixture(scope="session")
def homogeneous_game():
    return LQHomogeneous(
        strategy_set=StrategySet(0.0, 50.0),
        xi=ParameterBox(np.array([0.0, 0.0]), np.array([2.5, 1.5])),
    )
