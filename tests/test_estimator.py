import numpy as np
import pytest

from graphongames import (
    ConstantGraphon,
    InfeasibleParameterSet,
    LQHomogeneous,
    NoStart,
    NotInterior,
    ParameterBox,
    PiecewiseConstantFn,
    StrategySet,
    estimate,
    hessian,
    model_equilibrium_fn,
    objective,
    objective_gradient,
)
from graphongames.estimator import EstimateOptions, _start_points
from conftest import ETA4, PI4, Q2


def riemann_objective(observed, g, spec, eta, cells=10**6):
    xs = (np.arange(cells) + 0.5) / cells
    model = model_equilibrium_fn(g, spec, eta)
    return float(np.mean((observed(xs) - model(xs)) ** 2))


class TestObjective:
    def test_zero_at_self(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        assert objective(obs, sbm4, sbm4_game, ETA4) == 0.0

    def test_constant_shift(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.37
        assert objective(obs, sbm4, sbm4_game, ETA4) == pytest.approx(
            0.37**2, abs=1e-14
        )

    def test_matches_riemann_oracle(self, sbm4, sbm4_game):
        # N = 100 grid points and quarter communities both lie on the 1e-6
        # Riemann grid, so the midpoint oracle is exact
        rng = np.random.default_rng(23)
        obs = PiecewiseConstantFn(
            np.linspace(0, 1, 101), rng.uniform(0.5, 2.0, size=100)
        )
        for _ in range(3):
            eta = rng.uniform(0.05, 1.1, size=4)
            assert objective(obs, sbm4, sbm4_game, eta) == pytest.approx(
                riemann_objective(obs, sbm4, sbm4_game, eta), abs=1e-10
            )


class TestObjectiveGradient:
    def test_zero_residual_gives_zero_gradient(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        grad = objective_gradient(obs, sbm4, sbm4_game, ETA4)
        assert np.abs(grad).max() <= 1e-14

    def test_matches_finite_differences(self, sbm4, sbm4_game):
        rng = np.random.default_rng(31)
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.1
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

    def test_not_interior_refused(self):
        g = ConstantGraphon(0.5)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 1.5),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, 1.5])),
        )
        obs = PiecewiseConstantFn.constant(1.0)
        with pytest.raises(NotInterior):
            objective_gradient(obs, g, spec, [1.0, 1.0])


class TestHessian:
    def test_zero_residual_is_psd(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        info = hessian(obs, sbm4, sbm4_game, ETA4)
        assert info.min_eigenvalue >= -1e-12
        assert info.min_eigenvalue == pytest.approx(
            np.linalg.eigvalsh(info.matrix).min()
        )

    def test_exact_symmetry(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.2
        info = hessian(obs, sbm4, sbm4_game, np.array([0.7, 0.5, 0.9, 0.7]))
        assert np.array_equal(info.matrix, info.matrix.T)

    def test_matches_objective_curvature(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.05
        eta = np.array([0.7, 0.5, 0.9, 0.7])
        info = hessian(obs, sbm4, sbm4_game, eta)
        h = 1e-4
        fd = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                ei = np.zeros(4)
                ej = np.zeros(4)
                ei[i] = h
                ej[j] = h
                fd[i, j] = (
                    objective(obs, sbm4, sbm4_game, eta + ei + ej)
                    - objective(obs, sbm4, sbm4_game, eta + ei - ej)
                    - objective(obs, sbm4, sbm4_game, eta - ei + ej)
                    + objective(obs, sbm4, sbm4_game, eta - ei - ej)
                ) / (4 * h * h)
        assert np.abs(fd - info.matrix).max() <= 1e-5


class TestEstimate:
    def test_exact_self_recovery(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        result = estimate(obs, sbm4, sbm4_game)
        assert np.abs(result.eta_hat - ETA4).max() <= 1e-6
        assert result.objective <= 1e-12
        assert result.converged
        assert result.starts == 9
        assert sbm4_game.xi.contains(result.eta_hat)

    def test_deterministic(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.05
        r1 = estimate(obs, sbm4, sbm4_game)
        r2 = estimate(obs, sbm4, sbm4_game)
        assert np.array_equal(r1.eta_hat, r2.eta_hat)
        assert r1.objective == r2.objective

    def test_non_identifiable_flat_valley(self):
        # constant kernel: any (eta1, eta2) with eta1 / (1 - eta2 c) fixed
        # gives the same equilibrium, so J at the optimum is 0 but eta_hat
        # need not match the generator
        c = 0.5
        g = ConstantGraphon(c)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 10.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
        )
        eta_bar = np.array([1.0, 1.0])
        obs = model_equilibrium_fn(g, spec, eta_bar)
        result = estimate(obs, g, spec)
        assert result.objective <= 1e-12
        value = result.eta_hat[0] / (1 - result.eta_hat[1] * c)
        assert value == pytest.approx(2.0, abs=1e-5)

    def test_reported_objective_matches_objective(self, sbm4, sbm4_game):
        # a rough observation keeps J well above zero at the optimum, so the
        # residual form plus its constant must reproduce the merged-partition
        # integral, not just a value near zero
        rng = np.random.default_rng(29)
        obs = PiecewiseConstantFn(
            np.linspace(0, 1, 201), rng.uniform(0.5, 2.0, size=200)
        )
        result = estimate(obs, sbm4, sbm4_game)
        direct = objective(obs, sbm4, sbm4_game, result.eta_hat)
        assert direct > 1e-3
        assert result.objective == pytest.approx(direct, rel=0, abs=1e-12)

    def test_no_start_point_beats_the_estimate(self, sbm4, sbm4_game):
        rng = np.random.default_rng(37)
        obs = PiecewiseConstantFn(
            np.linspace(0, 1, 101), rng.uniform(0.8, 1.6, size=100)
        )
        opts = EstimateOptions()
        result = estimate(obs, sbm4, sbm4_game, opts)
        lo, hi = sbm4_game.xi.lower, sbm4_game.xi.upper
        for x0 in _start_points(lo, hi, 8):
            assert result.objective <= (
                objective(obs, sbm4, sbm4_game, x0) + opts.tie_tol
            )

    def test_infeasible_box(self):
        g = ConstantGraphon(0.9)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 10.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 2.0])),
        )
        obs = PiecewiseConstantFn.constant(1.0)
        with pytest.raises(InfeasibleParameterSet):
            estimate(obs, g, spec)

    def test_no_start_when_margin_cap_empties_box(self):
        g = ConstantGraphon(0.5)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 10.0),
            xi=ParameterBox(
                np.array([0.1, 1.999999]), np.array([1.0, 1.9999995])
            ),
        )
        obs = PiecewiseConstantFn.constant(1.0)
        with pytest.raises(NoStart):
            estimate(obs, g, spec)

    def test_start_points_deterministic(self):
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 2.0])
        a = _start_points(lo, hi, 8)
        b = _start_points(lo, hi, 8)
        assert np.array_equal(a, b)
        assert a.shape == (9, 2)
        assert np.allclose(a[0], [0.5, 1.0])
        assert np.all((a >= lo) & (a <= hi))

    def test_homogeneous_recovery_from_sampled_network(self, sbm2):
        # full loop for the two-parameter game on an identifiable kernel:
        # sample, solve the finite game, estimate the generator back
        from graphongames import (
            derive_run_seed,
            homogeneous_identifiability,
            observe,
            sample_network,
            solve_network_game,
        )

        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 50.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
        )
        eta_bar = np.array([1.0, 0.5])
        assert homogeneous_identifiability(sbm2, eta_bar).identifiable
        errs = []
        for run in range(5):
            net = sample_network(sbm2, 800, derive_run_seed(5150, run, 800))
            neq = solve_network_game(net, spec, eta_bar)
            result = estimate(observe(net, neq), sbm2, spec)
            assert result.converged
            errs.append(np.abs(result.eta_hat - eta_bar).max())
        assert np.median(errs) <= 0.25

    def test_tied_starts_report_a_converged_one(self):
        # grid-kernel run whose starts all reach the same J up to rounding;
        # two of them stall just above gtol, and the smallest parameter among
        # the tied starts is one of those, so the reported start must be
        # picked by convergence before parameter order
        from graphongames import (
            GridGraphon,
            derive_run_seed,
            observe,
            sample_network,
            solve_network_game,
        )

        g = GridGraphon(np.kron(Q2, np.ones((3, 3))))
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 50.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
        )
        net = sample_network(g, 60, derive_run_seed(11, 0, 60))
        neq = solve_network_game(net, spec, np.array([1.0, 0.5]))
        result = estimate(observe(net, neq), g, spec)
        gtol = EstimateOptions().gtol
        assert result.converged
        assert result.gradient_norm <= gtol
        assert result.converged == (result.gradient_norm <= gtol)

    def test_no_converged_start_reports_not_converged(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.05
        opts = EstimateOptions(max_iter=1)
        result = estimate(obs, sbm4, sbm4_game, opts)
        assert not result.converged
        assert result.gradient_norm > opts.gtol

    def test_gradient_smoothness_bounded_quotients(self, sbm4, sbm4_game):
        rng = np.random.default_rng(41)
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4) + 0.1
        quotients = []
        for _ in range(20):
            e1 = rng.uniform(0.2, 1.1, size=4)
            e2 = e1 + rng.uniform(-0.05, 0.05, size=4)
            e2 = np.clip(e2, 0.2, 1.1)
            if np.allclose(e1, e2):
                continue
            g1 = objective_gradient(obs, sbm4, sbm4_game, e1)
            g2 = objective_gradient(obs, sbm4, sbm4_game, e2)
            quotients.append(
                np.linalg.norm(g1 - g2) / np.linalg.norm(e1 - e2)
            )
        quotients = np.array(quotients)
        assert np.all(np.isfinite(quotients))
        assert quotients.max() < 1e3
