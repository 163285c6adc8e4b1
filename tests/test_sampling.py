import hashlib
import inspect
import os
import subprocess
import sys
import threading
import tracemalloc
from math import isqrt

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from graphongames import (
    ConstantGraphon,
    Graphon,
    LQHomogeneous,
    LQSBM,
    NoConvergence,
    NotAContraction,
    ParameterBox,
    ParameterOutOfBox,
    SampledNetwork,
    StrategySet,
    PiecewiseConstantFn,
    interpolate_equilibrium,
    l2_distance,
    observe,
    read_network,
    sample_network,
    solve_network_game,
    write_network,
)
from graphongames import sampling
from graphongames.equilibrium import DEFAULT_MAX_ITER, _project
from graphongames.sampling import EDGE_BLOCK_PAIRS, network_spectral_radius
from conftest import (ETA4, PI4, Q4, lu_resolvent, random_block_kernel,
                      smooth_grid_kernel, wide_homogeneous)


def triu_sampler(g, n, seed):
    """The one-block sampler the row-block sampler must reproduce: all
    N(N-1)/2 uniforms at once, scattered in row-major upper-triangle order."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    labels = np.sort(rng.random(n))
    c = g.cell_index(labels)
    probs = g.q[np.ix_(c, c)]
    iu, ju = np.triu_indices(n, k=1)
    edges = (rng.random(iu.size) < probs[iu, ju]).astype(np.int8)
    adjacency = np.zeros((n, n), dtype=np.int8)
    adjacency[iu, ju] = edges
    adjacency[ju, iu] = edges
    return labels, adjacency


def upper_csr(adjacency):
    """The sampler's storage of a dense symmetric 0-1 matrix: its strict
    upper triangle as CSR with float64 ones."""
    return sp.csr_array(np.triu(adjacency, k=1).astype(float))


def network(adjacency):
    n = adjacency.shape[0]
    return SampledNetwork(labels=(np.arange(n) + 0.5) / n,
                          upper=upper_csr(adjacency), seed=None,
                          graphon=ConstantGraphon(1.0))


def empirical_resolvent(net, spec, eta, order):
    """The finite game's interior solve by the dense resolvent core: the
    graphon game on the empirical kernel P / N, with the game's affine maps
    read at the cells holding the agents' labels."""
    cells = net.graphon.cell_index(net.labels)
    maps = tuple(m[cells] for m in spec.affine_maps(net.graphon))
    return lu_resolvent(net.adjacency.toarray() / net.n_agents, maps, eta,
                        order)


def projected_iterate(net, spec, eta, tol):
    """(s, iterations) of the projected best-response loop from zero on the
    network, the finite game's bound-binding route and oracle."""
    th1, th2 = spec.cell_thetas(net.graphon, eta)
    cells = net.graphon.cell_index(net.labels)
    th1, th2, n = th1[cells], th2[cells], net.n_agents
    u, ut = net.upper, net.upper.T
    return _project(lambda s: (u @ s + ut @ s) / n, th1, th2,
                    spec.strategy_set, tol, DEFAULT_MAX_ITER)


def assert_upper_csr(net):
    """The network is CSR and holds each edge once, as (i, j) with i < j."""
    upper = net.upper
    assert isinstance(upper, sp.csr_array)
    rows = np.repeat(np.arange(net.n_agents), np.diff(upper.indptr))
    assert np.all(upper.indices > rows)
    assert np.all(upper.data == 1.0)


def network_sha256(net):
    """SHA-256 of a sampled network's labels and CSR structure."""
    h = hashlib.sha256()
    for a in (net.labels, net.upper.indptr, net.upper.indices):
        h.update(a.tobytes())
    return h.hexdigest()


def star(n):
    a = np.zeros((n, n), dtype=np.int8)
    a[0, 1:] = a[1:, 0] = 1
    return network(a)


def complete_bipartite(k, m):
    a = np.zeros((k + m, k + m), dtype=np.int8)
    a[:k, k:] = a[k:, :k] = 1
    return network(a)


class TestSampleNetwork:
    def test_probability_one_gives_complete_graph(self):
        net = sample_network(ConstantGraphon(1.0), 30, seed=1)
        expected = np.ones((30, 30), dtype=np.int8) - np.eye(30, dtype=np.int8)
        assert np.array_equal(net.adjacency.toarray(), expected)

    def test_probability_zero_gives_empty_graph(self):
        net = sample_network(ConstantGraphon(0.0), 30, seed=1)
        assert net.upper.nnz == 0

    def test_density_concentration(self):
        # binomial oracle: N(N-1)/2 pairs, 3 standard deviations around p
        n, p = 2000, 0.3
        net = sample_network(ConstantGraphon(p), n, seed=42)
        pairs = n * (n - 1) / 2
        density = net.upper.nnz / pairs
        sigma = np.sqrt(p * (1 - p) / pairs)
        assert abs(density - p) <= 3 * sigma

    def test_structure_invariants(self, sbm4):
        net = sample_network(sbm4, 200, seed=7)
        assert np.all(np.diff(net.labels) >= 0.0)
        adjacency = net.adjacency.toarray()
        assert np.array_equal(adjacency, adjacency.T)
        assert not adjacency.diagonal().any()
        assert set(np.unique(adjacency)) <= {0, 1}

    def test_bit_reproducibility(self, sbm4):
        a = sample_network(sbm4, 150, seed=99)
        b = sample_network(sbm4, 150, seed=99)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.adjacency.toarray(), b.adjacency.toarray())
        c = sample_network(sbm4, 150, seed=100)
        assert not np.array_equal(a.adjacency.toarray(), c.adjacency.toarray())

    def test_single_agent(self):
        net = sample_network(ConstantGraphon(0.5), 1, seed=3)
        assert net.adjacency.shape == (1, 1) and net.upper.nnz == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            sample_network(ConstantGraphon(0.5), 0, seed=3)

    # 46,340^2 < 2^31 - 1 < 46,341^2: the largest int32 network and the
    # smallest int64 one
    @pytest.mark.parametrize("n, index", [(1, np.int32), (46_340, np.int32),
                                          (46_341, np.int64),
                                          (100_000, np.int64)])
    def test_index_dtype_is_scipys_rule(self, n, index):
        assert sampling._index_dtype(n) == sp.get_index_dtype(maxval=n * n)
        assert sampling._index_dtype(n) == index


# on two CPUs one row block holds the whole network up to this size, two
# just above it
ONE_BLOCK_MAX = isqrt(EDGE_BLOCK_PAIRS)


class TestRowBlockSampler:
    @pytest.mark.parametrize("kernel", ["sbm4", "constant", "grid"])
    @pytest.mark.parametrize(
        "n", [1, 2, 3, ONE_BLOCK_MAX - 1, ONE_BLOCK_MAX, ONE_BLOCK_MAX + 1,
              1600])  # 1600: ten row blocks, configs/sbm4.yaml's largest N
    def test_matches_one_block_sampler(self, sbm4, kernel, n):
        g = {"sbm4": sbm4, "constant": ConstantGraphon(0.4),
             "grid": smooth_grid_kernel()}[kernel]
        for seed in (0, 1, 2):
            labels, adjacency = triu_sampler(g, n, seed)
            net = sample_network(g, n, seed)
            assert np.array_equal(net.labels, labels)
            assert_upper_csr(net)
            assert np.array_equal(net.adjacency.toarray(), adjacency)

    @pytest.mark.parametrize("budget", [1, 7, 100, 401])
    def test_block_size_does_not_change_the_network(self, monkeypatch, sbm4,
                                                    budget):
        # 40 agents, 780 pairs: one row per block at budget 1, then blocks
        # of several rows
        expected = triu_sampler(sbm4, 40, 5)[1]
        monkeypatch.setattr(sampling, "EDGE_BLOCK_PAIRS", budget)
        assert np.array_equal(sample_network(sbm4, 40, 5).adjacency.toarray(),
                              expected)

    @pytest.mark.parametrize("kernel", ["sbm4", "constant", "grid"])
    @pytest.mark.parametrize("n, budgets", [
        # 820 pairs: one row per block at budget 1; at 1500 two blocks for
        # three workers; one block at the default budget
        (41, [1, 7, 100, 1500, EDGE_BLOCK_PAIRS]),
        # 2,001,000 pairs: 8 to 92 blocks
        (2001, [1 << 16, EDGE_BLOCK_PAIRS]),
    ])  # odd n: block offsets are not multiples of Philox's 4-draw step
    def test_worker_count_does_not_change_the_network(self, monkeypatch, sbm4,
                                                      kernel, n, budgets):
        g = {"sbm4": sbm4, "constant": ConstantGraphon(0.4),
             "grid": smooth_grid_kernel()}[kernel]
        labels, adjacency = triu_sampler(g, n, 11)
        expected = upper_csr(adjacency)
        for workers in (1, 2, 3):
            monkeypatch.setattr(sampling, "_workers", lambda: workers)
            for budget in budgets:
                monkeypatch.setattr(sampling, "EDGE_BLOCK_PAIRS", budget)
                net = sample_network(g, n, 11)
                assert np.array_equal(net.labels, labels)
                assert np.array_equal(net.upper.indptr, expected.indptr)
                assert np.array_equal(net.upper.indices, expected.indices)

    def test_one_cpu_process_samples_the_same_network(self, sbm4):
        # the sampler's threads follow the CPUs the process may run on
        cpu = min(os.sched_getaffinity(0))
        script = "import hashlib, os\n" + inspect.getsource(network_sha256) + f"""
import numpy as np
from graphongames import Graphon, sample_network, sampling
os.sched_setaffinity(0, {{{cpu}}})
assert sampling._workers() == 1
g = Graphon(np.array({Q4.tolist()}), np.array({PI4.tolist()}))
print(network_sha256(sample_network(g, 1600, 20240405)))
"""
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == network_sha256(sample_network(sbm4, 1600,
                                                            20240405))

    def test_workers_without_affinity_read_the_cpu_count(self, monkeypatch):
        # a platform without sched_getaffinity: the CPU count, or one
        # thread where even that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sampling._workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sampling._workers() == 1

    def test_blocks_in_flight_share_the_pair_budget(self, monkeypatch, sbm4):
        # Per pair in flight a block holds its threshold and its raw word
        # (8 bytes each), a hit flag (1) and, for the ~15% of pairs that
        # are edges, an 8-byte position: ~18 bytes. A budget large against
        # the network makes the blocks' working memory the peak beyond U.
        budget, workers, n = 1 << 21, 3, 4000
        monkeypatch.setattr(sampling, "EDGE_BLOCK_PAIRS", budget)
        monkeypatch.setattr(sampling, "_workers", lambda: workers)
        tracemalloc.start()
        try:
            net = sample_network(sbm4, n, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        u = net.upper
        held = u.data.nbytes + u.indices.nbytes + u.indptr.nbytes
        # the budget plus one row per block, at 20 bytes a pair
        assert peak - held < 20 * (budget + workers * n)

    def test_warm_blocks_draw_into_kept_buffers(self, monkeypatch):
        # On one thread the grid kernel at N = 800 is two blocks. A block's
        # thresholds (8 bytes a pair) and hit flags (1) live in buffers
        # kept by its thread, so once a call has grown them only its raw
        # words (8) are fresh; a block that allocated all three would peak
        # at about 17 bytes a pair of the thread's share.
        monkeypatch.setattr(sampling, "_workers", lambda: 1)
        g, n = smooth_grid_kernel(), 800
        assert n * (n - 1) // 2 > EDGE_BLOCK_PAIRS
        sample_network(g, n, seed=1)
        tracemalloc.start()
        try:
            net = sample_network(g, n, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        u = net.upper
        held = u.data.nbytes + u.indices.nbytes + u.indptr.nbytes
        assert peak - held < 10 * EDGE_BLOCK_PAIRS

    def test_concurrent_callers_get_their_own_networks(self, monkeypatch,
                                                      sbm4):
        # 300 agents fit one thread's share and are drawn on the caller's
        # thread, 1600 on the pool: four callers at once, switching
        # threads often, each get the networks a lone caller gets
        monkeypatch.setattr(sampling, "_workers", lambda: 2)
        cases = [(300, 0), (1600, 1), (300, 2), (1600, 3)]
        expected = [network_sha256(sample_network(sbm4, *c)) for c in cases]
        found = [[] for _ in cases]

        def draw(caller):
            for round_ in range(3):
                case = cases[(caller + round_) % len(cases)]
                found[caller].append(network_sha256(sample_network(sbm4,
                                                                   *case)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=draw, args=(c,))
                       for c in range(len(cases))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for caller, digests in enumerate(found):
            assert digests == [expected[(caller + r) % len(cases)]
                               for r in range(3)]

    @pytest.mark.parametrize("n", [3, 41, 513])
    def test_thresholds_decide_as_the_uniforms_do(self, n):
        # u < p on the uniform is (x >> 11) < ceil(p 2^53) on the raw word,
        # at the ends of [0, 1] and next to the steps of the uniform's grid
        values = [0.0, 1.0, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53,
                  np.nextafter(0.0, 1.0), np.nextafter(0.3, 0.0)]
        k = len(values)
        cell = np.arange(k)
        g = Graphon(np.array(values)[(cell[:, None] + cell) % k],
                    np.full(k, 1.0 / k))
        for seed in (0, 1, 2):
            labels, adjacency = triu_sampler(g, n, seed)
            net = sample_network(g, n, seed)
            assert np.array_equal(net.labels, labels)
            assert np.array_equal(net.adjacency.toarray(), adjacency)

    def test_thread_pool_is_kept(self, sbm4):
        started = threading.active_count()
        for seed in range(50):
            sample_network(sbm4, 1600, seed)  # ten blocks: threaded
        assert threading.active_count() <= started + sampling._workers()

    def test_forked_child_samples_on_a_fresh_pool(self, sbm4):
        # the child has none of its parent's pool threads: sampling on that
        # pool would wait for ever, so the alarm ends it. In a subprocess,
        # the fork stays clear of this suite's warning filter.
        script = "import hashlib, os, signal, sys\n" + inspect.getsource(
            network_sha256) + f"""
import numpy as np
from graphongames import Graphon, sample_network, sampling
sampling._workers = lambda: 2  # threaded even on one CPU
g = Graphon(np.array({Q4.tolist()}), np.array({PI4.tolist()}))
print(network_sha256(sample_network(g, 1600, 20240405)), flush=True)
if os.fork() == 0:
    signal.alarm(30)
    print(network_sha256(sample_network(g, 1600, 20240405)), flush=True)
    sys.exit(0)
sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
"""
        run = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digest = network_sha256(sample_network(sbm4, 1600, 20240405))
        assert run.stdout.split() == [digest, digest]


class TestSolveNetworkGame:
    def test_empty_graph_decouples(self):
        net = sample_network(ConstantGraphon(0.0), 20, seed=5)
        spec = wide_homogeneous()
        eq = solve_network_game(net, spec, [0.8, 0.9])
        assert eq.strategies == pytest.approx(np.full(20, 0.8), abs=1e-12)
        assert np.all(eq.aggregates == 0.0)

    def test_complete_graph_symmetric_value(self):
        n = 40
        net = sample_network(ConstantGraphon(1.0), n, seed=5)
        spec = wide_homogeneous()
        eta = [1.0, 0.5]
        eq = solve_network_game(net, spec, eta, tol=1e-13)
        expected = 1.0 / (1.0 - 0.5 * (n - 1) / n)
        assert eq.strategies == pytest.approx(np.full(n, expected), abs=1e-9)

    def test_direct_matches_iteration_when_interior(self, sbm4, sbm4_game):
        net = sample_network(sbm4, 300, seed=11)
        tol = 1e-12
        it = solve_network_game(net, sbm4_game, ETA4, tol=tol)
        direct, _ = empirical_resolvent(net, sbm4_game, ETA4, 0)
        assert it.interior and sbm4_game.strategy_set.is_interior(direct)
        assert np.abs(it.strategies - direct).max() <= 10 * tol

    def test_residual_and_interior_flags(self, sbm4, sbm4_game):
        net = sample_network(sbm4, 120, seed=13)
        eq = solve_network_game(net, sbm4_game, ETA4)
        assert eq.residual <= 1e-10
        assert eq.interior

    def test_not_a_contraction(self):
        net = sample_network(ConstantGraphon(1.0), 50, seed=2)
        with pytest.raises(NotAContraction):
            solve_network_game(net, wide_homogeneous(), [1.0, 1.5])

    def test_spectral_radius_bounds(self):
        net = sample_network(ConstantGraphon(1.0), 25, seed=2)
        # complete graph: largest adjacency eigenvalue is N - 1
        assert network_spectral_radius(net) == pytest.approx(24 / 25, rel=1e-6)

    @pytest.mark.parametrize(
        "net, lam",
        [(star(50), 7.0), (complete_bipartite(10, 40), 20.0),
         (star(2), 1.0), (star(3), np.sqrt(2.0)), (star(1), 0.0),
         (network(np.zeros((5, 5))), 0.0)],
        ids=["star", "K10,40", "single-edge", "path-of-3", "single-agent",
             "no-edges"])
    def test_spectral_radius_on_bipartite_networks(self, net, lam):
        # +lam and -lam tie in magnitude: lam = sqrt(k * m) on K_{k,m}
        n = net.n_agents
        exact = np.linalg.eigvalsh(net.adjacency.toarray()).max()
        assert exact == pytest.approx(lam, rel=1e-12)
        assert network_spectral_radius(net) == pytest.approx(exact / n, rel=1e-8)

    def test_eigensolve_failure_is_no_convergence(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.array([]), None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(NoConvergence):
            network_spectral_radius(star(50))

    def test_star_certified_by_spectral_check(self):
        # hub row sum: 1.5 * 49 / 50 > 1, but 1.5 * 7 / 50 = 0.21 < 1
        eq = solve_network_game(star(50), wide_homogeneous(), [1.0, 1.5])
        assert eq.certificate == "spectral"
        assert eq.contraction_margin == pytest.approx(1.0 - 1.5 * 7 / 50, rel=1e-8)
        assert eq.residual <= 1e-10

    def test_star_beyond_spectral_condition(self):
        # 10 * 7 / 50 = 1.4: no contraction
        with pytest.raises(NotAContraction):
            solve_network_game(star(50), wide_homogeneous(eta2_max=20.0),
                               [1.0, 10.0])

    def test_sbm4_certified_by_row_sums(self, monkeypatch, sbm4, sbm4_game):
        def no_eigensolve(net):
            raise AssertionError("spectral fallback reached")

        monkeypatch.setattr(sampling, "network_spectral_radius", no_eigensolve)
        net = sample_network(sbm4, 300, seed=11)
        eq = solve_network_game(net, sbm4_game, ETA4)
        th2 = ETA4[np.minimum((net.labels * 4).astype(int), 3)]
        degrees = net.adjacency.toarray().sum(axis=1)
        assert eq.certificate == "row_sum"
        assert eq.contraction_margin == pytest.approx(
            1.0 - np.max(th2 * degrees) / 300, rel=1e-12)
        assert eq.contraction_margin > 0.0

    def test_community_game_needs_block_kernel(self, sbm4_game):
        net = sample_network(smooth_grid_kernel(), 30, seed=4)
        with pytest.raises(ValueError, match="4 communities .* 100 cells"):
            solve_network_game(net, sbm4_game, ETA4)

    def test_agents_take_their_label_cells_parameters(self, sbm4, sbm4_game):
        # complete 4-agent network on sbm4: labels in communities 0, 1 and,
        # twice, the last one, 1.0 included because the last cell is closed
        labels = np.array([0.1, 0.3, 0.99, 1.0])
        adjacency = np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8)
        net = SampledNetwork(labels=labels, upper=upper_csr(adjacency),
                             seed=None, graphon=sbm4)
        tol = 1e-12
        eq = solve_network_game(net, sbm4_game, ETA4, tol=tol)
        expected = np.linalg.solve(
            np.eye(4) - ETA4[[0, 1, 3, 3]][:, None] * adjacency / 4, np.ones(4))
        assert np.abs(eq.strategies - expected).max() <= 10 * tol
        assert np.array_equal(empirical_resolvent(net, sbm4_game, ETA4, 0)[0],
                              expected)

    def test_eta_outside_box_rejected(self, sbm4, sbm4_game):
        net = sample_network(sbm4, 30, seed=4)
        with pytest.raises(ParameterOutOfBox):
            solve_network_game(net, sbm4_game, [2.0, 0.6, 1.0, 0.8])

    def test_solve_allocates_no_n_by_n_array(self, sbm4, sbm4_game):
        # a dense float64 copy of P alone would be 8 N^2 bytes; the guard
        # is N^2 bytes, the size of an int8 adjacency matrix
        n = 4000
        net = sample_network(sbm4, n, seed=3)
        tracemalloc.start()
        try:
            eq = solve_network_game(net, sbm4_game, ETA4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert eq.residual <= 1e-10
        assert peak < n * n

    def test_ignored_pi_keeps_the_benchmark_call_shape(self, sbm4, sbm4_game):
        # perfbench/bench.py still passes pi=; delete this test and the
        # ignored keyword at the next benchmark change (ROADMAP item 1)
        net = sample_network(sbm4, 200, seed=9)
        with_pi = solve_network_game(net, sbm4_game, ETA4, tol=1e-10,
                                     max_iter=1000, pi=PI4)
        without = solve_network_game(net, sbm4_game, ETA4, tol=1e-10,
                                     max_iter=1000)
        assert np.array_equal(with_pi.strategies, without.strategies)


class TestSolverRoute:
    """A certified interior game with every theta2_i > 0 is solved by
    conjugate gradients; a binding bound, a spectral-only certificate or a
    zero theta2_i takes the projected loop, whose iterate is unchanged."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        ratio=st.floats(0.05, 0.75),
        eta1=st.floats(0.1, 2.0),
        community=st.booleans(),
    )
    def test_cg_matches_projected_loop(self, k, seed, n, ratio, eta1,
                                       community):
        g, rng = random_block_kernel(k, seed)
        net = sample_network(g, n, seed)
        # max theta2 * max degree / N <= ratio keeps the row-sum certificate
        scale = max(net.adjacency.sum(axis=1).max() / n, 1e-3)
        if community:
            eta = rng.uniform(0.05, 1.0, size=k) * ratio / scale
            spec = LQSBM(theta1=eta1, strategy_set=StrategySet(0.0, 1e6),
                         xi=ParameterBox(np.zeros(k), eta + 1.0))
        else:
            eta = np.array([eta1, ratio / scale])
            spec = LQHomogeneous(strategy_set=StrategySet(0.0, 1e6),
                                 xi=ParameterBox(np.zeros(2), eta + 1.0))
        tol = 1e-10
        eq = solve_network_game(net, spec, eta, tol=tol)
        s, _ = projected_iterate(net, spec, eta, tol)
        assert eq.route == "cg" and eq.certificate == "row_sum"
        assert eq.interior and eq.residual <= tol * eq.contraction_margin
        assert np.abs(eq.strategies - s).max() <= 10 * tol

    def test_cg_takes_under_half_the_projected_steps(self, sbm4, sbm4_game):
        # P / N is the kernel's few large eigenvalues plus noise, so CG's
        # step count stays small while the loop's rate is theta2 lambda_max
        for n in (400, 1600):
            net = sample_network(sbm4, n, seed=1)
            eq = solve_network_game(net, sbm4_game, ETA4)
            _, iterations = projected_iterate(net, sbm4_game, ETA4, 1e-10)
            assert eq.route == "cg" and 2 * eq.iterations <= iterations

    def test_cg_out_of_steps_hands_over_to_the_projected_loop(
            self, sbm4, sbm4_game):
        # CG takes 6 steps here; with a cap of 5 it hands over, and the
        # projected loop hits the same cap
        net = sample_network(sbm4, 400, seed=3)
        with pytest.raises(NoConvergence):
            solve_network_game(net, sbm4_game, ETA4, max_iter=5)
        eq = solve_network_game(net, sbm4_game, ETA4, max_iter=6)
        assert eq.route == "cg" and eq.iterations == 6

    def assert_projected(self, net, spec, eta):
        eq = solve_network_game(net, spec, eta)
        s, iterations = projected_iterate(net, spec, eta, 1e-10)
        assert eq.route == "project"
        assert np.array_equal(eq.strategies, s)
        assert eq.iterations == iterations
        return eq

    def test_binding_bound_takes_the_projected_loop(self, sbm4):
        spec = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 1.1),
                     xi=ParameterBox(np.full(4, 0.01), np.full(4, 1.2)))
        eq = self.assert_projected(sample_network(sbm4, 300, seed=11), spec,
                                   ETA4)
        assert eq.certificate == "row_sum" and not eq.interior
        assert eq.strategies.max() == 1.1

    def test_spectral_certificate_takes_the_projected_loop(self):
        eq = self.assert_projected(star(50), wide_homogeneous(), [1.0, 1.5])
        assert eq.certificate == "spectral" and eq.interior

    def test_zero_aggregate_effect_takes_the_projected_loop(self, sbm4):
        spec = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 10.0),
                     xi=ParameterBox(np.zeros(4), np.full(4, 1.2)))
        eq = self.assert_projected(sample_network(sbm4, 300, seed=11), spec,
                                   np.array([0.8, 0.0, 1.0, 0.8]))
        assert eq.certificate == "row_sum" and eq.interior


class TestEmpiricalKernelOracle:
    """The finite game is the graphon game on its empirical kernel: on
    interior draws the projected loop agrees with the dense resolvent core
    on P / N, whose order-1 arrays are then the finite game's exact
    ds_N/deta."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        ratio=st.floats(0.05, 0.75),
        eta1=st.floats(0.1, 2.0),
        community=st.booleans(),
    )
    def test_random_block_kernels(self, k, seed, n, ratio, eta1, community):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.0, 1.0, size=(k, k))
        net = sample_network(Graphon((q + q.T) / 2, rng.dirichlet(np.ones(k))),
                             n, seed)
        # max |theta2| * max degree / N <= ratio: the sup-norm contraction
        # factor, so an iterate that moved by at most tol is within
        # tol * ratio / (1 - ratio) <= 3 tol of the equilibrium
        scale = max(net.adjacency.sum(axis=1).max() / n, 1e-3)
        if community:
            eta = rng.uniform(0.05, 1.0, size=k) * ratio / scale
            spec = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 1e6),
                         xi=ParameterBox(np.zeros(k), eta + 1.0))
        else:
            eta = np.array([eta1, ratio / scale])
            spec = LQHomogeneous(strategy_set=StrategySet(0.0, 1e6),
                                 xi=ParameterBox(np.zeros(2), eta + 1.0))
        tol = 1e-12
        eq = solve_network_game(net, spec, eta, tol=tol)
        s, z, grad = empirical_resolvent(net, spec, eta, 1)
        assert eq.interior and eq.certificate == "row_sum"
        assert np.abs(eq.strategies - s).max() <= 10 * tol
        assert np.abs(eq.aggregates - z).max() <= 10 * tol

        h = 1e-5
        for i in range(eta.size):
            e = np.zeros(eta.size)
            e[i] = h
            plus = solve_network_game(net, spec, eta + e, tol=1e-13).strategies
            minus = solve_network_game(net, spec, eta - e, tol=1e-13).strategies
            fd = (plus - minus) / (2 * h)
            scale = max(1.0, np.abs(grad[:, i]).max())
            assert np.abs(fd - grad[:, i]).max() / scale <= 1e-6


class TestObserve:
    def test_single_agent_constant(self):
        net = sample_network(ConstantGraphon(0.5), 1, seed=6)
        spec = wide_homogeneous()
        eq = solve_network_game(net, spec, [0.7, 0.2])
        obs = observe(net, eq)
        assert obs(0.5) == pytest.approx(0.7, abs=1e-12)

    def test_constant_strategies_give_constant_function(self):
        net = sample_network(ConstantGraphon(1.0), 15, seed=6)
        spec = wide_homogeneous()
        eq = solve_network_game(net, spec, [1.0, 0.0])
        obs = observe(net, eq)
        assert np.all(obs.values == obs.values[0])

    def test_l2_norm_identity(self, sbm4, sbm4_game):
        net = sample_network(sbm4, 64, seed=8)
        eq = solve_network_game(net, sbm4_game, ETA4)
        obs = observe(net, eq)
        assert l2_distance(obs, PiecewiseConstantFn([0, 1], [0.0])) == pytest.approx(
            np.linalg.norm(eq.strategies) / np.sqrt(64), rel=1e-12
        )


class TestNetworkIO:
    def test_roundtrip(self, tmp_path, sbm4):
        net = sample_network(sbm4, 50, seed=77)
        edges = tmp_path / "edges.txt"
        labels = tmp_path / "labels.txt"
        write_network(net, edges, labels)
        back = read_network(edges, labels, sbm4)
        assert_upper_csr(back)
        assert np.array_equal(back.upper.toarray(), net.upper.toarray())
        assert np.allclose(back.labels, net.labels, atol=1e-16)
        assert back.seed is None and back.graphon is sbm4

    def test_roundtrip_empty_graph(self, tmp_path):
        net = sample_network(ConstantGraphon(0.0), 5, seed=1)
        edges = tmp_path / "edges.txt"
        labels = tmp_path / "labels.txt"
        write_network(net, edges, labels)
        back = read_network(edges, labels, ConstantGraphon(0.0))
        assert back.upper.nnz == 0
        assert back.labels.size == 5

    def test_file_format_is_pinned(self, tmp_path, sbm4):
        # SHA-256 of the files written for the network of perfbench's
        # digest gate (sbm4, N = 200, seed 20240405); 2835 edges
        net = sample_network(sbm4, 200, seed=20240405)
        edges = tmp_path / "edges.txt"
        labels = tmp_path / "labels.txt"
        write_network(net, edges, labels)
        assert len(edges.read_bytes().splitlines()) == 2835
        assert hashlib.sha256(edges.read_bytes()).hexdigest() == (
            "cefdc823cc1bf5e91cebc093cbf88cde64fc88053dc339eda7267c2ed109bd7f")
        assert hashlib.sha256(labels.read_bytes()).hexdigest() == (
            "946547ebbd1b918723d6c4438782e03a56fc9789e3b34f8cdebb9852aa725371")

    def test_edges_read_in_any_order(self, tmp_path):
        edges_path = tmp_path / "edges.txt"
        labels_path = tmp_path / "labels.txt"
        edges_path.write_text("2 3\n1 0\n3 0\n")
        labels_path.write_text("0.1\n0.2\n0.3\n0.4\n")
        net = read_network(edges_path, labels_path, ConstantGraphon(0.5))
        assert_upper_csr(net)
        expected = np.zeros((4, 4))
        expected[[0, 0, 2], [1, 3, 3]] = 1.0
        assert np.array_equal(net.upper.toarray(), expected)

    @pytest.mark.parametrize(
        "edges, labels, message",
        [
            ("0 1\n2 4\n", "0.1\n0.2\n0.3\n0.4\n", "outside"),
            ("0 1\n-1 2\n", "0.1\n0.2\n0.3\n0.4\n", "outside"),
            ("0 1\n2 2\n", "0.1\n0.2\n0.3\n0.4\n", "self-loop"),
            ("0 1\n1 2\n0 1\n", "0.1\n0.2\n0.3\n0.4\n", "duplicate"),
            ("0 1\n1 0\n", "0.1\n0.2\n0.3\n0.4\n", "duplicate"),
            ("0 1\n2\n", "0.1\n0.2\n0.3\n0.4\n", "two agent indices"),
            ("0 1 2\n3\n", "0.1\n0.2\n0.3\n0.4\n", "two agent indices"),
            ("0 1 2\n", "0.1\n0.2\n0.3\n0.4\n", "two agent indices"),
            ("0 1\n", "0.1\n0.3\n0.2\n0.4\n", "sorted"),
            ("", "", "no labels"),
            ("0 1\n", "0.1\nnan\n0.5\n", "lie in"),
            ("0 1\n", "0.1\n0.5\n1.5\n", "lie in"),
            ("0 1\n", "-0.2\n0.5\n0.7\n", "lie in"),
            ("0 1\n", "0.1\n0.2\ninf\n", "lie in"),
        ],
        ids=["index-too-large", "index-negative", "self-loop",
             "duplicate-pair", "duplicate-reversed-pair", "odd-token-count",
             "three-indices-then-one", "three-indices",
             "unsorted-labels", "no-labels", "nan-label", "label-above-one",
             "negative-label", "infinite-label"],
    )
    def test_malformed_input_rejected(self, tmp_path, edges, labels, message):
        edges_path = tmp_path / "edges.txt"
        labels_path = tmp_path / "labels.txt"
        edges_path.write_text(edges)
        labels_path.write_text(labels)
        with pytest.raises(ValueError, match=message):
            read_network(edges_path, labels_path, ConstantGraphon(0.5))

    @pytest.mark.parametrize("labels", ["0.1 0.2\n0.3 0.4\n", "0.1 0.2\n"])
    def test_labels_file_with_two_values_per_line(self, tmp_path, labels):
        # read flat, these would be four and two agents
        edges_path = tmp_path / "edges.txt"
        labels_path = tmp_path / "labels.txt"
        edges_path.write_text("0 1\n")
        labels_path.write_text(labels)
        with pytest.raises(ValueError,
                           match="labels.txt: a line does not hold one label"):
            read_network(edges_path, labels_path, ConstantGraphon(0.5))
