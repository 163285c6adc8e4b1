"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. The Monte Carlo sweep is shared between criteria and runs
once per session.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from graphongames import (
    ConstantGraphon,
    Graphon,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    StrategySet,
    estimate,
    hessian,
    homogeneous_identifiability,
    model_equilibrium_fn,
    objective,
    objective_gradient,
    observe,
    sample_network,
    sbm_identifiability_constant,
    solve_fixed_point,
    solve_network_game,
    empirical_identifiability_test,
    fd_check,
)
from graphongames.harness import (
    derive_run_seed,
    load_config,
    quantiles_to_csv,
    records_to_csv,
    run_experiment,
    summarize_quantiles,
)
from graphongames.equilibrium import solve_values
from conftest import ETA4, shifted, smooth_grid_kernel


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS  {description}")


@pytest.fixture(scope="module")
def experiment():
    config = load_config("configs/sbm4.yaml")
    started = time.perf_counter()
    records = run_experiment(config)
    elapsed = time.perf_counter() - started
    return config, records, elapsed


def median_by_n(records, attr):
    return {
        n: float(np.median([getattr(r, attr) for r in records if r.n == n]))
        for n in sorted({r.n for r in records})
    }


def test_criterion_1_oracle_equivalence(sbm4, sbm4_game):
    with criterion(1, "fixed point matches closed forms to 1e-9 sup-norm"):
        started = time.perf_counter()
        eq = solve_fixed_point(sbm4, sbm4_game, ETA4)
        closed, _ = solve_values(sbm4, sbm4_game, ETA4)
        assert np.max(np.abs(eq.strategies - closed)) <= 1e-9

        rng = np.random.default_rng(2024)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            q = (lambda m: (m + m.T) / 2)(rng.uniform(0, 1, size=(k, k)))
            pi = rng.dirichlet(np.ones(k))
            g = Graphon(q, pi)
            lam = max(g.lambda_max(), 1e-9)
            if rng.random() < 0.5:
                eta = np.array(
                    [rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.75 / lam)]
                )
                spec = LQHomogeneous(
                    strategy_set=StrategySet(0.0, 1e6),
                    xi=ParameterBox(np.zeros(2), eta + 1.0),
                )
            else:
                eta = rng.uniform(0.05, 0.75 / lam, size=k)
                spec = LQSBM(
                    theta1=1.0,
                    strategy_set=StrategySet(0.0, 1e6),
                    xi=ParameterBox(np.zeros(k), eta + 1.0),
                )
            closed, _ = solve_values(g, spec, eta)
            iterated = solve_fixed_point(g, spec, eta).strategies
            assert np.max(np.abs(iterated - closed)) <= 1e-9
        assert time.perf_counter() - started < 5.0


def test_criterion_2_constant_graphon_closed_form(homogeneous_game):
    with criterion(2, "constant kernel equilibrium equals eta1/(1 - eta2 c)"):
        for c in (0.1, 0.3, 0.5, 0.7, 0.9):
            for eta1 in (0.2, 1.0, 2.0):
                for eta2 in (0.0, 0.4, 0.9):
                    if eta2 * c >= 1.0:
                        continue
                    s, _ = solve_values(ConstantGraphon(c), homogeneous_game,
                                        [eta1, eta2])
                    expected = eta1 / (1.0 - eta2 * c)
                    assert abs(s[0] - expected) <= 1e-12


def test_criterion_3_derivative_correctness(sbm4, sbm4_game):
    with criterion(3, "analytic derivatives match finite differences"):
        homogeneous = LQHomogeneous(
            strategy_set=StrategySet(0.0, 50.0),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, 2.0])),
        )
        assert fd_check(sbm4, homogeneous, [0.8, 0.5], order=1) <= 1e-5
        assert fd_check(sbm4, homogeneous, [0.8, 0.5], order=2) <= 1e-4
        assert fd_check(sbm4, sbm4_game, ETA4, order=1) <= 1e-5
        assert fd_check(sbm4, sbm4_game, ETA4, order=2) <= 1e-4

        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.1)
        rng = np.random.default_rng(99)
        h = 1e-6
        for _ in range(3):
            eta = rng.uniform(0.3, 1.1, size=4)
            grad = objective_gradient(obs, sbm4, sbm4_game, eta)
            fd = np.zeros(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd[i] = (
                    objective(obs, sbm4, sbm4_game, eta + e)
                    - objective(obs, sbm4, sbm4_game, eta - e)
                ) / (2 * h)
            assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) <= 1e-5


def test_criterion_4_exact_self_recovery(sbm4, sbm4_game):
    with criterion(4, "estimate recovers the generator from its own equilibrium"):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        started = time.perf_counter()
        result = estimate(obs, sbm4, sbm4_game)
        elapsed = time.perf_counter() - started
        assert np.abs(result.eta_hat - ETA4).max() <= 1e-6
        assert result.objective <= 1e-12
        assert elapsed < 10.0


def test_criterion_5_estimator_convergence_sweep(experiment):
    with criterion(5, "median estimation error decreases in N, <= 0.1 at 1600"):
        config, records, elapsed = experiment
        assert len(records) == len(config.n_list) * config.runs_per_n
        medians = median_by_n(records, "err_inf")
        assert medians[100] > medians[400] > medians[1600]
        assert medians[1600] <= 0.1
        assert all(r.converged for r in records)
        assert elapsed <= 300.0


def test_moment_start_needs_one_evaluation_at_n1600(experiment):
    # a count guards estimation cost where a time would drift on a noisy
    # machine: at N = 1600 the moment start already solves the square
    # community system, so the estimate stops at its first resolvent
    # evaluation
    _, records, _ = experiment
    assert median_by_n(records, "evaluations")[1600] == 1


def test_criterion_6_observation_convergence(experiment):
    with criterion(6, "median observation distance decreases in N"):
        _, records, _ = experiment
        medians = median_by_n(records, "l2_obs_vs_graphon")
        assert medians[100] > medians[400] > medians[1600]


def test_criterion_7_identifiability_inequality(sbm4, sbm4_game):
    with criterion(7, "stability constant never violated on 100 samples"):
        report = sbm_identifiability_constant(sbm4, sbm4_game, ETA4)
        violations = empirical_identifiability_test(
            sbm4, sbm4_game, ETA4, report.constant, samples=100, seed=2024
        )
        assert violations == 0


def test_criterion_8_non_identifiability_counterexample():
    with criterion(8, "constant kernel collapses parameters onto a line"):
        c = 0.5
        g = ConstantGraphon(c)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 10.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
        )
        eta_a = np.array([1.0, 1.0])    # 1.0 / (1 - 0.5) = 2
        eta_b = np.array([1.5, 0.5])    # 1.5 / (1 - 0.25) = 2
        obs = model_equilibrium_fn(g, spec, eta_a)
        j_a = objective(obs, g, spec, eta_a)
        j_b = objective(obs, g, spec, eta_b)
        assert abs(j_a - j_b) <= 1e-12

        report = homogeneous_identifiability(g, spec, eta_a)
        assert not report.identifiable
        assert report.gamma == pytest.approx(c * 2.0, abs=1e-12)


def test_criterion_9_hessian_diagnostics(sbm4, sbm4_game):
    with criterion(9, "Hessian PSD near truth; positive definite on samples"):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        rng = np.random.default_rng(31415)
        for _ in range(50):
            direction = rng.normal(size=4)
            direction /= np.linalg.norm(direction)
            radius = 0.05 * rng.random() ** 0.25
            eta = ETA4 + radius * direction
            info = hessian(obs, sbm4, sbm4_game, eta)
            assert info.min_eigenvalue >= -1e-10

        positive = 0
        runs = 20
        for run in range(runs):
            seed = derive_run_seed(777, run, 1600)
            net = sample_network(sbm4, 1600, seed)
            neq = solve_network_game(net, sbm4_game, ETA4)
            sampled_obs = observe(net, neq)
            info = hessian(sampled_obs, sbm4, sbm4_game, ETA4)
            if info.min_eigenvalue > 0.0:
                positive += 1
        assert positive >= 0.9 * runs


def test_criterion_10_sampling_statistics():
    with criterion(10, "edge density within 3 sigma; seeded reruns identical"):
        n, p = 2000, 0.3
        net = sample_network(ConstantGraphon(p), n, seed=31)
        pairs = n * (n - 1) / 2
        density = net.upper.nnz / pairs
        sigma = np.sqrt(p * (1 - p) / pairs)
        assert abs(density - p) <= 3 * sigma

        again = sample_network(ConstantGraphon(p), n, seed=31)
        assert np.array_equal(net.adjacency.toarray(), again.adjacency.toarray())
        assert np.array_equal(net.labels, again.labels)


def test_criterion_11_deterministic_experiment_output(experiment, tmp_path):
    with criterion(11, "experiment CSV is byte-identical across invocations"):
        config, records, _ = experiment
        n_params = config.game.xi.dim
        rerun = run_experiment(load_config("configs/sbm4.yaml"))
        assert records_to_csv(records, n_params) == records_to_csv(rerun, n_params)
        assert quantiles_to_csv(summarize_quantiles(records)) == quantiles_to_csv(
            summarize_quantiles(rerun)
        )

        # and across BLAS thread counts
        one, four = results_at_blas_threads("configs/sbm4.yaml", tmp_path)
        assert one == four
        assert one == records_to_csv(records, n_params).encode()


def test_criterion_11_grid_kernel_invariant_to_blas_threads(tmp_path):
    with criterion(11, "grid-kernel experiment CSV is byte-identical across "
                       "BLAS thread counts"):
        # the benchmark's 100-cell grid kernel with the homogeneous game
        np.savetxt(tmp_path / "kernel.csv", smooth_grid_kernel().q,
                   fmt="%.17g", delimiter=",")
        config = tmp_path / "grid.yaml"
        config.write_text(yaml.safe_dump({
            "graphon": {"kind": "grid", "csv": "kernel.csv"},
            "game": {
                "kind": "lq_homogeneous",
                "strategy_set": [0.0, 50.0],
                "xi": {"lower": [0.1, 0.0], "upper": [2.0, 1.5]},
            },
            "eta_true": [1.0, 0.9],
            "n_list": [200],
            "runs_per_n": 4,
            "master_seed": 0,
        }))
        one, four = results_at_blas_threads(str(config), tmp_path)
        assert one == four


def test_criterion_11_objective_invariant_to_blas_threads_at_large_n(tmp_path):
    with criterion(11, "estimate on a 20,000-value observation prints the "
                       "same bytes at one and four BLAS threads"):
        # above OpenBLAS's threading threshold for a dot product
        config = load_config("configs/sbm4.yaml")
        n = 20_000
        model = model_equilibrium_fn(config.graphon, config.game,
                                     config.eta_true)
        noise = np.random.default_rng(5).normal(0.0, 0.3, n)
        obs = tmp_path / "obs.txt"
        np.savetxt(obs, model((np.arange(n) + 0.5) / n) + noise, fmt="%.17g")
        one, four = (
            subprocess.run(
                [sys.executable, "-m", "graphongames.cli", "estimate",
                 "--config", "configs/sbm4.yaml", "--observation", str(obs)],
                check=True, capture_output=True, env=blas_env(threads),
            ).stdout
            for threads in ("1", "4")
        )
        assert b"objective = " in one
        assert one == four


def blas_env(threads: str) -> dict:
    """The environment with every BLAS thread count set to ``threads``."""
    return dict(os.environ, OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def results_at_blas_threads(config: str, tmp_path) -> list[bytes]:
    """The results CSV of ``experiment`` on ``config`` at one and at four
    BLAS threads, each from its own interpreter session, since the thread
    count is read when numpy loads."""
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}.csv"
        subprocess.run(
            [
                sys.executable, "-m", "graphongames.cli", "experiment",
                "--config", config, "--out", str(out),
            ],
            check=True, env=blas_env(threads), capture_output=True,
        )
        outputs.append(out.read_bytes())
    return outputs
