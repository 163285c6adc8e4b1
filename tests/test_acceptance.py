"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. The Monte Carlo sweep is shared between criteria and runs
once per session.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from graphongames import (
    ConstantGraphon,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    PiecewiseConstantFn,
    SBMGraphon,
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
    solve_lq_homogeneous,
    solve_network_game,
    sup_distance,
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
from conftest import ETA4


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
        closed = PiecewiseConstantFn(sbm4.cell_boundaries(),
                                     solve_values(sbm4, sbm4_game, ETA4)[0])
        assert sup_distance(eq.strategy, closed) <= 1e-9

        rng = np.random.default_rng(2024)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            q = (lambda m: (m + m.T) / 2)(rng.uniform(0, 1, size=(k, k)))
            pi = rng.dirichlet(np.ones(k))
            g = SBMGraphon(q, pi)
            lam = max(g.lambda_max(), 1e-9)
            if rng.random() < 0.5:
                eta = np.array(
                    [rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.75 / lam)]
                )
                spec = LQHomogeneous(
                    strategy_set=StrategySet(0.0, 1e6),
                    xi=ParameterBox(np.zeros(2), eta + 1.0),
                )
                closed = solve_lq_homogeneous(g, eta).strategy
            else:
                eta = rng.uniform(0.05, 0.75 / lam, size=k)
                spec = LQSBM(
                    theta1=1.0,
                    strategy_set=StrategySet(0.0, 1e6),
                    xi=ParameterBox(np.zeros(k), eta + 1.0),
                )
                closed = PiecewiseConstantFn(
                    g.cell_boundaries(), solve_values(g, spec, eta)[0])
            iterated = solve_fixed_point(g, spec, eta).strategy
            assert sup_distance(iterated, closed) <= 1e-9
        assert time.perf_counter() - started < 5.0


def test_criterion_2_constant_graphon_closed_form():
    with criterion(2, "constant kernel equilibrium equals eta1/(1 - eta2 c)"):
        for c in (0.1, 0.3, 0.5, 0.7, 0.9):
            for eta1 in (0.2, 1.0, 2.0):
                for eta2 in (0.0, 0.4, 0.9):
                    if eta2 * c >= 1.0:
                        continue
                    eq = solve_lq_homogeneous(ConstantGraphon(c), [eta1, eta2])
                    expected = eta1 / (1.0 - eta2 * c)
                    assert abs(eq.strategy.values[0] - expected) <= 1e-12


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

        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.1
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

        report = homogeneous_identifiability(g, eta_a)
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

        # and across BLAS thread counts, via separate interpreter sessions
        import os
        import subprocess
        import sys

        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"threads{threads}.csv"
            env = dict(
                os.environ,
                OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            subprocess.run(
                [
                    sys.executable, "-m", "graphongames.cli", "experiment",
                    "--config", "configs/sbm4.yaml", "--out", str(out),
                ],
                check=True, env=env, capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == records_to_csv(records, n_params).encode()
