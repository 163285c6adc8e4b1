import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from graphongames import (
    ConstantGraphon,
    ExperimentConfig,
    Graphon,
    GridGraphon,
    LQAffine,
    LQHomogeneous,
    LQSBM,
    NotAContraction,
    NotInterior,
    ParameterBox,
    PiecewiseConstantFn,
    StrategySet,
    cell_integrals,
    contraction_margin,
    estimate,
    hessian,
    interpolate_equilibrium,
    l2_distance,
    model_equilibrium_fn,
    objective,
    objective_gradient,
    observe,
    run_experiment,
    sample_network,
    solve_network_game,
)
from graphongames.equilibrium import _kernel_resolvent, gradient_values
from graphongames.estimator import EstimateOptions, _j, _statistic
from conftest import (ETA4, PI4, Q2, Q4, lu_resolvent, random_block_kernel,
                      run_fresh, shifted, smooth_grid_kernel)


def riemann_objective(observed, g, spec, eta, cells=10**6):
    xs = (np.arange(cells) + 0.5) / cells
    model = model_equilibrium_fn(g, spec, eta)
    return float(np.mean((observed(xs) - model(xs)) ** 2))


class TestObjective:
    def test_zero_at_self(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        assert objective(obs, sbm4, sbm4_game, ETA4) == 0.0

    def test_constant_shift(self, sbm4, sbm4_game):
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.37)
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
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.1)
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
        obs = PiecewiseConstantFn([0, 1], [1.0])
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
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.2)
        info = hessian(obs, sbm4, sbm4_game, np.array([0.7, 0.5, 0.9, 0.7]))
        assert np.array_equal(info.matrix, info.matrix.T)

    def test_matches_objective_curvature(self, sbm4, sbm4_game):
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.05)
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


FLAT_VALLEY_C = 0.5


def flat_valley(c=FLAT_VALLEY_C, eta=(1.0, 1.0)):
    """Constant kernel observed at its own equilibrium: J vanishes along a
    whole curve of parameters, so its Hessian there is singular."""
    g = ConstantGraphon(c)
    spec = LQHomogeneous(
        strategy_set=StrategySet(0.0, 10.0),
        xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
    )
    return g, spec, model_equilibrium_fn(g, spec, np.array(eta))


class TestEstimate:
    def test_exact_self_recovery(self, sbm4, sbm4_game):
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        result = estimate(obs, sbm4, sbm4_game)
        assert np.abs(result.eta_hat - ETA4).max() <= 1e-6
        assert result.objective <= 1e-12
        assert result.converged
        assert result.starts == 1
        # the moment start solves the square community system: one evaluation
        assert result.iterations_total == 1
        assert sbm4_game.xi.contains(result.eta_hat)

    def test_deterministic(self, sbm4, sbm4_game):
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.05)
        r1 = estimate(obs, sbm4, sbm4_game)
        r2 = estimate(obs, sbm4, sbm4_game)
        assert np.array_equal(r1.eta_hat, r2.eta_hat)
        assert r1.objective == r2.objective

    def test_non_identifiable_flat_valley(self):
        # constant kernel: any (eta1, eta2) with eta1 / (1 - eta2 c) fixed
        # gives the same equilibrium, so J at the optimum is 0 but eta_hat
        # need not match the generator
        g, spec, obs = flat_valley()
        result = estimate(obs, g, spec)
        assert result.objective <= 1e-12
        value = result.eta_hat[0] / (1 - result.eta_hat[1] * FLAT_VALLEY_C)
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
        model = model_equilibrium_fn(sbm4, sbm4_game, result.eta_hat)
        direct = l2_distance(obs, model) ** 2
        assert direct > 1e-3
        assert result.objective == pytest.approx(direct, rel=0, abs=1e-12)

    def test_no_start_point_beats_the_estimate(self, sbm4, sbm4_game):
        from scipy.stats import qmc

        rng = np.random.default_rng(37)
        obs = PiecewiseConstantFn(
            np.linspace(0, 1, 101), rng.uniform(0.8, 1.6, size=100)
        )
        result = estimate(obs, sbm4, sbm4_game)
        lo, hi = sbm4_game.xi.lower, sbm4_game.xi.upper
        halton = qmc.Halton(d=lo.size, scramble=False).random(8)
        for x0 in lo + halton * (hi - lo):
            assert result.objective <= (
                objective(obs, sbm4, sbm4_game, x0) + 1e-12
            )

    def test_infeasible_box(self):
        g = ConstantGraphon(0.9)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 10.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 2.0])),
        )
        obs = PiecewiseConstantFn([0, 1], [1.0])
        with pytest.raises(NotAContraction):
            estimate(obs, g, spec)

    def test_box_near_the_margin_is_searched_as_given(self):
        # the margin over the box is 1 - 0.5 * 1.9999995 = 2.5e-7, positive,
        # so every eta in the box has a unique equilibrium and the search
        # runs on the whole box, up to its upper corner
        g = ConstantGraphon(0.5)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 1e7),
            xi=ParameterBox(
                np.array([0.1, 1.999999]), np.array([1.0, 1.9999995])
            ),
        )
        assert contraction_margin(spec, g) == pytest.approx(2.5e-7, rel=1e-8)
        obs = model_equilibrium_fn(g, spec, [0.5, 1.9999993])
        result = estimate(obs, g, spec)
        assert spec.xi.contains(result.eta_hat)
        assert result.eta_hat[1] == spec.xi.upper[1]
        # the constant kernel does not identify eta, but the fit is exact
        assert result.objective == 0.0
        assert model_equilibrium_fn(g, spec, result.eta_hat).values \
            == pytest.approx(obs.values, rel=1e-12)

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
        assert homogeneous_identifiability(sbm2, spec, eta_bar).identifiable
        errs = []
        for run in range(5):
            net = sample_network(sbm2, 800, derive_run_seed(5150, run, 800))
            neq = solve_network_game(net, spec, eta_bar)
            result = estimate(observe(net, neq), sbm2, spec)
            assert result.converged
            errs.append(np.abs(result.eta_hat - eta_bar).max())
        assert np.median(errs) <= 0.25

    def test_tied_starts_report_a_converged_one(self):
        # grid-kernel run on which solves from other starting points reach
        # the same J up to rounding, two of them stalling just above gtol;
        # the solve from the moment start converges and is certified
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
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.05)
        opts = EstimateOptions(max_iter=1)
        result = estimate(obs, sbm4, sbm4_game, opts)
        assert not result.converged
        assert result.gradient_norm > opts.gtol

    def test_bound_at_the_estimate_is_not_certified(self, sbm4, sbm4_game):
        # the [0, 10] game's equilibrium at ETA4 reads 1.232, 1.049, 1.082
        # and 1.203, so on [0, 1.1] the resolvent at the estimate leaves
        # the strategy set
        tight = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 1.1),
                      xi=sbm4_game.xi)
        obs = model_equilibrium_fn(sbm4, sbm4_game, ETA4)
        result = estimate(obs, sbm4, tight)
        assert np.abs(result.eta_hat - ETA4).max() <= 1e-14
        assert np.isnan(result.hessian_min_eig)
        assert not result.converged
        assert result.iterations_total == 1

    def test_gradient_smoothness_bounded_quotients(self, sbm4, sbm4_game):
        rng = np.random.default_rng(41)
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.1)
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


class TestCertifiedStart:
    """The solve from the moment start is the estimate. It is converged
    when its projected-gradient norm is at most gtol and the Hessian on the
    free coordinates is positive definite beyond rounding, with the
    gradient pointing strictly out of the box at the active ones; otherwise
    it is reported not converged."""

    def test_certified_center_is_the_estimate(self, sbm4, sbm4_game):
        obs = shifted(model_equilibrium_fn(sbm4, sbm4_game, ETA4), 0.05)
        result = estimate(obs, sbm4, sbm4_game)
        assert result.starts == 1
        assert result.converged and result.hessian_min_eig > 0.0
        assert result.gradient_norm <= EstimateOptions().gtol

    def test_singular_hessian_falls_back(self):
        # non-identifiable: J vanishes along a curve, so the Hessian is
        # singular (min eig about -4.4e-16) and nothing certifies the point
        g, spec, obs = flat_valley()
        result = estimate(obs, g, spec)
        assert result.objective <= 1e-12
        assert result.gradient_norm <= EstimateOptions().gtol
        assert not result.hessian_min_eig > 1e-12
        assert not result.converged
        assert result.starts == 1

    def test_rounding_level_eigenvalue_falls_back(self):
        # the flat valley's zero eigenvalue is rounding noise (about +7e-18
        # for this case); it lies below the p * eps * max |eigenvalue|
        # floor, so its sign cannot certify the point
        g, spec, obs = flat_valley(0.2, (0.5, 0.2))
        result = estimate(obs, g, spec)
        assert abs(result.hessian_min_eig) <= 1e-15
        assert result.gradient_norm <= EstimateOptions().gtol
        assert not result.converged

    def test_minimum_on_a_bound_is_reached(self, homogeneous_game):
        # the minimum has the aggregate effect at its lower bound 0, where
        # every cell plays theta1 = eta1, so J(eta1, 0) = ||obs - eta1||^2
        # and eta1 is the observation's mean. At the clipped moment start
        # the aggregate effect is active, and a Newton step on eta1 alone
        # reaches the minimum, where a trust-region solve crept along the
        # bound and stopped above gtol
        g = GridGraphon(np.kron(Q2, np.ones((3, 3))))
        obs = interpolate_equilibrium(
            np.random.default_rng(192).uniform(0, 4, 40)
        )
        result = estimate(obs, g, homogeneous_game)
        assert result.converged and result.hessian_min_eig > 0.0
        assert result.gradient_norm <= EstimateOptions().gtol
        minimum = np.array([np.dot(np.diff(obs.breakpoints), obs.values), 0.0])
        assert objective_gradient(obs, g, homogeneous_game, minimum)[1] > 0.0
        assert np.abs(result.eta_hat - minimum).max() <= 1e-12

    def test_uniform_noise_on_six_cells_converges(self, homogeneous_game):
        # the kernel and noise of the test above over 1,000 seeds; a
        # trust-region solve stopped above gtol on 5 of them
        g = GridGraphon(np.kron(Q2, np.ones((3, 3))))
        for seed in range(1000):
            obs = interpolate_equilibrium(
                np.random.default_rng(seed).uniform(0, 4, 40)
            )
            assert estimate(obs, g, homogeneous_game).converged, seed

    def test_indefinite_free_hessian_takes_gauss_newton_step(
            self, homogeneous_game, monkeypatch):
        # an observation on the last cell only: at some iterate the Hessian
        # on the free coordinates is indefinite, its Cholesky factorization
        # fails and the Gauss-Newton matrix gives the step. The minimum is
        # (mean, 0), as in the test above: here the mean is 2/6
        failed = []
        cholesky = np.linalg.cholesky

        def recording_cholesky(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                failed.append(np.linalg.eigvalsh(a)[0])
                raise

        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        g = GridGraphon(np.kron(Q2, np.ones((3, 3))))
        obs = PiecewiseConstantFn(g.bounds, [0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        result = estimate(obs, g, homogeneous_game)
        assert failed and min(failed) < 0.0
        assert result.converged
        assert np.abs(result.eta_hat - [1.0 / 3.0, 0.0]).max() <= 1e-12

    def test_indefinite_hessian_falls_back(self, sbm4, sbm4_game):
        # a rough observation drives every coordinate to the upper bound,
        # where the full Hessian of J has a negative eigenvalue; all four
        # coordinates are active with the gradient pointing out of the box,
        # so the free set is empty and the point is certified
        obs = interpolate_equilibrium(
            np.random.default_rng(100).uniform(0, 3, 50)
        )
        result = estimate(obs, sbm4, sbm4_game)
        assert result.converged and result.starts == 1
        assert result.hessian_min_eig < 0.0
        assert np.allclose(result.eta_hat, sbm4_game.xi.upper, rtol=0,
                           atol=1e-12)


def box_center_oracle(observed, g, spec):
    """J's minimizer by scipy's bounded least squares from the box center,
    on the residual sqrt(w) s_eta - a / sqrt(w) written out from the cell
    integrals a of the observation and the resolvent's values and
    gradient; with whether it is certified: projected-gradient norm at
    most gtol and a positive definite Hessian of J."""
    root_w = np.sqrt(g.pi)
    target = cell_integrals(observed, g.bounds) / root_w
    lo, hi = spec.xi.lower, spec.xi.upper
    fit = least_squares(
        lambda e: root_w * gradient_values(g, spec, e)[0] - target,
        0.5 * (lo + hi),
        jac=lambda e: root_w[:, None] * gradient_values(g, spec, e)[2],
        bounds=(lo, hi), method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    grad = objective_gradient(observed, g, spec, fit.x)
    pgnorm = np.linalg.norm(fit.x - np.clip(fit.x - grad, lo, hi))
    certified = (pgnorm <= EstimateOptions().gtol
                 and hessian(observed, g, spec, fit.x).min_eigenvalue > 0.0)
    return fit.x, certified


class TestMomentStart:
    """The solve starts at the weighted least-squares solution of the
    equilibrium condition at the observed cell means, clipped into the box.
    With one unknown per community that system is square, so a noise-free
    observation is solved by the start itself."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_random_block_kernels(self, k, seed):
        # the start is the generator up to rounding; where that rounding
        # leaves the projected gradient above gtol, one Newton step
        # follows, which does not move the estimate beyond rounding
        g, rng = random_block_kernel(k, seed)
        lam = g.lambda_max()
        spec = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 50.0),
                     xi=ParameterBox(np.full(k, 0.01 / lam),
                                     np.full(k, 0.9 / lam)))
        eta = rng.uniform(0.05, 0.85, size=k) / lam
        result = estimate(model_equilibrium_fn(g, spec, eta), g, spec)
        assert result.converged
        assert result.iterations_total <= 2
        assert np.abs(result.eta_hat - eta).max() <= 1e-10

    @pytest.mark.parametrize("shipped", ["sbm4", "grid"])
    def test_agrees_with_box_center_solve(self, shipped, sbm4, sbm4_game):
        if shipped == "sbm4":
            g, spec = sbm4, sbm4_game
        else:
            g = smooth_grid_kernel()
            spec = LQHomogeneous(
                strategy_set=StrategySet(0.0, 50.0),
                xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
            )
        rng = np.random.default_rng(53)
        compared = 0
        for _ in range(12):
            eta = spec.xi.lower + rng.uniform(0.2, 0.8, spec.xi.dim) * (
                spec.xi.upper - spec.xi.lower)
            n = int(rng.choice([100, 400, 1600]))
            xs = (np.arange(n) + 0.5) / n
            clean = model_equilibrium_fn(g, spec, eta)(xs)
            obs = interpolate_equilibrium(
                clean + rng.normal(0.0, 0.2, n))
            result = estimate(obs, g, spec)
            oracle, certified = box_center_oracle(obs, g, spec)
            if result.converged and certified:
                compared += 1
                assert np.abs(result.eta_hat - oracle).max() <= 1e-7
        assert compared >= 10


def cell_space_j(observed, g, solved) -> list:
    """[J, grad J, H] from the cell values ``solved`` = (s, z, G, d2s) of
    the model equilibrium, by the estimator's formulas on the cells: with
    r = sqrt(w) s - a / sqrt(w), J = ||r||^2 + c, grad J = 2 (sqrt(w) G)^T r
    and H = 2 (sqrt(w) G)^T (sqrt(w) G) + 2 sum_k sqrt(w_k) r_k d2s_k."""
    root_w = np.sqrt(g.pi)
    target = cell_integrals(observed, g.bounds) / root_w
    v = observed.values
    offset = float((np.diff(observed.breakpoints) * v * v).sum()
                   - target @ target)
    s, _, grad, hess = solved
    r = root_w * s - target
    jac = root_w[:, None] * grad
    half = jac.T @ jac + hess @ (root_w * r)
    return [max(float(r @ r) + offset, 0.0), 2.0 * (jac.T @ r), half + half.T]


class TestCoordinateObjective:
    """J, its gradient and its Hessian, formed in the kernel solver's own
    coordinates with the curvature by one adjoint solve, equal the
    formulas on the cells from the dense per-pair reference
    (``conftest.lu_resolvent``) within 1e-12 relative, on random affine
    games whose theta2 is shared by every cell (the eigenbasis route) or
    set per cell (the LU route), and at one parameter per cell of the
    100-cell grid kernel."""

    @staticmethod
    def random_game(g, rng, p, shared):
        rows = 1 if shared else g.pi.size
        lam = g.lambda_max()
        return LQAffine(
            StrategySet(0.0, 1e3), ParameterBox(np.zeros(p),
                                                np.full(p, 0.7 / lam / p)),
            rng.uniform(0.5, 1.5, rows), rng.uniform(0.0, 1.0, (rows, p)),
            rng.uniform(0.0, 0.2 / lam, rows),
            rng.uniform(0.0, 1.0, (rows, p)))

    @staticmethod
    def check(g, spec, rng):
        eta = rng.uniform(spec.xi.lower, spec.xi.upper)
        obs = interpolate_equilibrium(
            rng.uniform(0.0, 3.0, int(rng.integers(20, 400))))
        solver = _kernel_resolvent(g, spec)
        got = _j(_statistic(obs, solver), solver(eta, 2))
        want = cell_space_j(obs, g, lu_resolvent(
            g.operator_matrix(), spec.affine_maps(g), eta, 2))
        for a, b in zip(got, want, strict=True):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 6), p=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), shared=st.booleans())
    def test_random_block_kernels(self, k, p, seed, shared):
        g, rng = random_block_kernel(k, seed)
        self.check(g, self.random_game(g, rng, p, shared), rng)

    @pytest.mark.parametrize("shared", [True, False])
    def test_grid_kernel(self, shared):
        g, rng = smooth_grid_kernel(), np.random.default_rng(31)
        for _ in range(5):
            self.check(g, self.random_game(g, rng, 2, shared), rng)

    def test_one_parameter_per_cell(self):
        # p = 100, where the per-pair tensor takes 5,050 right-hand sides:
        # the Hessian at a random eta in the box, and the noise-free
        # estimate, which recovers eta
        g, rng = smooth_grid_kernel(), np.random.default_rng(100)
        lam = g.lambda_max()
        spec = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 50.0),
                     xi=ParameterBox(np.full(100, 0.05 / lam),
                                     np.full(100, 0.9 / lam)))
        self.check(g, spec, rng)
        eta = rng.uniform(spec.xi.lower, spec.xi.upper)
        result = estimate(model_equilibrium_fn(g, spec, eta), g, spec)
        assert result.converged
        assert np.abs(result.eta_hat - eta).max() <= 1e-10


@pytest.mark.parametrize("shipped", ["sbm4", "grid"])
def test_sweep_estimates_are_the_public_estimates(shipped, sbm4, sbm4_game):
    # run_experiment builds one solver per sweep and forms each run's
    # statistic once; the public estimate, which builds its own, gives the
    # same estimate bit for bit on the same observation
    if shipped == "sbm4":
        g, game, eta = sbm4, sbm4_game, ETA4
    else:
        g, eta = smooth_grid_kernel(), np.array([1.0, 0.9])
        game = LQHomogeneous(
            strategy_set=StrategySet(0.0, 50.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
        )
    config = ExperimentConfig(graphon=g, game=game, eta_true=eta,
                              n_list=[100, 400], runs_per_n=3, master_seed=5)
    for r in run_experiment(config):
        net = sample_network(g, r.n, r.seed)
        neq = solve_network_game(net, game, eta, tol=config.solver.tol,
                                 max_iter=config.solver.max_iter)
        result = estimate(observe(net, neq), g, game, config.optimizer)
        assert np.array_equal(r.eta_hat, result.eta_hat)
        assert r.objective == result.objective
        assert r.evaluations == result.iterations_total


@pytest.mark.parametrize("n", [100, 400, 1601])
def test_statistic_on_the_realized_kernel_sums_each_cells_agents(
        sbm4, sbm4_game, n):
    # the step graphon at the realized masses, Graphon(q, counts / N), has
    # the agents' blocks on the grid {i/N} as its cells: a cut rule is a
    # kernel, read by the one statistic
    net = sample_network(sbm4, n, seed=n)
    neq = solve_network_game(net, sbm4_game, ETA4)
    counts = np.bincount(sbm4.cell_index(net.labels), minlength=4)
    kernel = Graphon(Q4, counts / n)
    solver = _kernel_resolvent(kernel, sbm4_game)
    target, _ = _statistic(observe(net, neq), solver)
    means = solver.basis @ target / solver.root_w
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sums = np.add.reduceat(neq.strategies, starts) / n
    assert np.all(np.abs(kernel.pi * means - sums) <= 1e-14 * np.abs(sums))


def test_forty_communities_validate_and_estimate_in_under_a_second():
    # the box's margin is read row by row, not over its 2^40 corners
    g, rng = random_block_kernel(40, 7)
    lam = g.lambda_max()
    spec = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 50.0),
                 xi=ParameterBox(np.full(40, 0.01 / lam),
                                 np.full(40, 0.9 / lam)))
    eta = rng.uniform(0.05, 0.85, size=40) / lam
    config = ExperimentConfig(graphon=g, game=spec, eta_true=eta,
                              n_list=[100], runs_per_n=1, master_seed=0)
    started = time.perf_counter()
    assert config.validate() == []
    result = estimate(model_equilibrium_fn(g, spec, eta), g, spec)
    assert time.perf_counter() - started < 1.0
    assert result.converged
    assert np.abs(result.eta_hat - eta).max() <= 1e-10


def test_grid_game_needs_at_most_five_evaluations_at_n800():
    # a count guards estimation cost where a time would drift on a noisy
    # machine: on the benchmark's grid game the projected Newton iteration
    # takes about 3 resolvent evaluations per estimate (a trust-region
    # solve took about 10)
    config = ExperimentConfig(
        graphon=smooth_grid_kernel(),
        game=LQHomogeneous(
            strategy_set=StrategySet(0.0, 50.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
        ),
        eta_true=np.array([1.0, 0.9]),
        n_list=[800],
        runs_per_n=10,
        master_seed=0,
    )
    records = run_experiment(config)
    assert all(r.converged for r in records)
    assert np.median([r.evaluations for r in records]) <= 5


def loaded_after_one_estimate(module: str) -> bool:
    """Whether ``module`` is in sys.modules after ``import graphongames``
    and one estimate from a sampled sbm4 network, in a fresh interpreter."""
    code = (
        "import sys, numpy as np, graphongames as gg; "
        f"g = gg.Graphon(np.array({Q4.tolist()}), np.array({PI4.tolist()})); "
        "spec = gg.LQSBM(theta1=1.0, strategy_set=gg.StrategySet(0.0, 10.0), "
        "xi=gg.ParameterBox(np.full(4, 0.01), np.full(4, 1.2))); "
        f"eta = np.array({ETA4.tolist()}); "
        "net = gg.sample_network(g, 100, 7); "
        "obs = gg.observe(net, gg.solve_network_game(net, spec, eta)); "
        "gg.estimate(obs, g, spec); "
        f"sys.exit(1 if {module!r} in sys.modules else 0)"
    )
    return run_fresh(code).returncode != 0


def test_estimate_leaves_scipy_stats_unloaded():
    # loading scipy.stats in a run would add ~20 MB and ~0.5 s to that run
    assert not loaded_after_one_estimate("scipy.stats")


def test_estimate_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize adds about 90 ms and 17 MB of resident
    # memory to every start-up
    assert not loaded_after_one_estimate("scipy.optimize")
