import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphongames import (
    ConstantGraphon,
    GridGraphon,
    LQHomogeneous,
    LQSBM,
    NoConvergence,
    NotAContraction,
    NotInterior,
    ParameterBox,
    ParameterOutOfBox,
    PiecewiseConstantFn,
    SBMGraphon,
    SpectralConditionViolated,
    StrategySet,
    fd_check,
    hessian,
    interpolate_equilibrium,
    model_equilibrium_fn,
    objective,
    objective_gradient,
    solve_fixed_point,
    solve_lq_homogeneous,
    sup_distance,
)
from graphongames.equilibrium import (
    gradient_values,
    second_derivative_values,
    solve_values,
)
from conftest import ETA4, PI2, Q2

# Frozen from the hand 2x2 solve: (I - M) s = 1 with M = [[0.2, 0.05],
# [0.05, 0.1]] gives s = (0.95, 0.85) / 0.7175.
HAND_S2 = np.array([0.95 / 0.7175, 0.85 / 0.7175])


def wide_homogeneous(upper=50.0):
    return LQHomogeneous(
        strategy_set=StrategySet(0.0, upper),
        xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, 2.0])),
    )


def unbounded(spec_cls, eta, **kwargs):
    """A game whose strategy bounds and box never bind near eta."""
    return spec_cls(strategy_set=StrategySet(0.0, 1e6),
                    xi=ParameterBox(np.zeros(eta.size), eta + 1.0), **kwargs)


def fd_gradient(g, spec, eta, h=1e-6):
    eta = np.asarray(eta, dtype=float)
    cols = []
    for i in range(eta.size):
        e = np.zeros_like(eta)
        e[i] = h
        sp, _ = solve_values(g, spec, eta + e)
        sm, _ = solve_values(g, spec, eta - e)
        cols.append((sp - sm) / (2 * h))
    return np.column_stack(cols)


class TestHomogeneousClosedForm:
    def test_constant_graphon(self):
        eq = solve_lq_homogeneous(ConstantGraphon(0.5), [1.0, 1.0])
        assert eq.strategy.values == pytest.approx([2.0], abs=1e-14)
        assert eq.aggregate.values == pytest.approx([1.0], abs=1e-14)

    def test_zero_standalone_return(self, sbm2):
        eq = solve_lq_homogeneous(sbm2, [0.0, 0.8])
        assert np.all(eq.strategy.values == 0.0)

    def test_symmetric_blocks_collapse_to_constant(self):
        g = SBMGraphon(np.full((2, 2), 0.5), PI2)
        eq = solve_lq_homogeneous(g, [1.0, 0.5])
        assert eq.strategy.values == pytest.approx([4.0 / 3.0, 4.0 / 3.0], abs=1e-13)

    def test_spectral_violation(self):
        with pytest.raises(SpectralConditionViolated):
            solve_lq_homogeneous(ConstantGraphon(0.8), [1.0, 1.3])

    def test_interior_flag_against_strategy_set(self):
        eq = solve_lq_homogeneous(
            ConstantGraphon(0.5), [1.0, 1.0], strategy_set=StrategySet(0.0, 1.5)
        )
        assert not eq.interior  # the unconstrained value 2 exceeds the bound
        eq2 = solve_lq_homogeneous(
            ConstantGraphon(0.5), [1.0, 1.0], strategy_set=StrategySet(0.0, 10.0)
        )
        assert eq2.interior and eq2.residual <= 1e-12


class TestBlockClosedForm:
    def test_hand_two_block_solve(self, sbm2):
        eta = np.array([0.5, 0.5])
        s, _ = solve_values(sbm2, unbounded(LQSBM, eta, theta1=1.0), eta)
        assert s == pytest.approx(HAND_S2, abs=1e-12)
        assert s == pytest.approx([1.32404, 1.18467], abs=1e-5)

    def test_zero_eta_gives_theta1(self, sbm2):
        eta = np.zeros(2)
        s, _ = solve_values(sbm2, unbounded(LQSBM, eta, theta1=2.5), eta)
        assert s == pytest.approx([2.5, 2.5], abs=1e-15)

    def test_aggregates_positive_with_positive_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            q = rng.uniform(0.05, 1.0, size=(k, k))
            q = (q + q.T) / 2
            pi = rng.dirichlet(np.ones(k))
            g = SBMGraphon(q, pi)
            eta = rng.uniform(0.0, 0.8 / g.lambda_max(), size=k)
            _, aggregates = solve_values(g, unbounded(LQSBM, eta, theta1=1.0), eta)
            assert np.all(aggregates > 0.0)

    def test_spectral_violation(self, sbm2):
        eta = np.array([1.1 / sbm2.lambda_max(), 0.1])
        with pytest.raises(SpectralConditionViolated):
            solve_values(sbm2, unbounded(LQSBM, eta, theta1=1.0), eta)


class TestFixedPoint:
    def test_constant_graphon_interior(self):
        g = ConstantGraphon(0.6)
        spec = wide_homogeneous()
        eq = solve_fixed_point(g, spec, [1.0, 0.9])
        expected = 1.0 / (1.0 - 0.9 * 0.6)
        assert eq.strategy.values == pytest.approx([expected], abs=1e-9)
        assert eq.interior
        assert eq.residual <= 1e-10

    def test_decoupled_game(self, sbm4):
        spec = wide_homogeneous(upper=1.5)
        eq = solve_fixed_point(sbm4, spec, [2.0, 0.0])
        # eta2 = 0 decouples agents; the best response clamps at the bound
        assert np.all(eq.strategy.values == 1.5)
        assert eq.iterations <= 2

    def test_benchmark_matches_block_solver(self, sbm4, sbm4_game):
        eq = solve_fixed_point(sbm4, sbm4_game, ETA4, tol=1e-12)
        s, _ = solve_values(sbm4, sbm4_game, ETA4)
        assert eq.strategy.values == pytest.approx(s, abs=1e-10)

    def test_aggregate_consistency(self, sbm4, sbm4_game):
        eq = solve_fixed_point(sbm4, sbm4_game, ETA4)
        recomputed = sbm4.apply(eq.strategy)
        assert sup_distance(eq.aggregate, recomputed) <= 1e-12

    def test_not_a_contraction(self):
        spec = wide_homogeneous()
        with pytest.raises(NotAContraction):
            solve_fixed_point(ConstantGraphon(1.0), spec, [1.0, 1.2])

    def test_eta_outside_box_rejected(self, sbm4, sbm4_game):
        with pytest.raises(ParameterOutOfBox):
            solve_fixed_point(sbm4, sbm4_game, [2.0, 0.6, 1.0, 0.8])

    def test_no_convergence_on_impossible_tolerance(self, sbm4, sbm4_game):
        with pytest.raises(NoConvergence):
            solve_fixed_point(sbm4, sbm4_game, ETA4, tol=0.0, max_iter=5)

    def test_projection_active_flags_non_interior(self):
        g = ConstantGraphon(0.5)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 1.5),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, 1.5])),
        )
        eq = solve_fixed_point(g, spec, [1.0, 1.0])
        assert not eq.interior
        assert np.all(eq.strategy.values == 1.5)
        assert eq.residual <= 1e-10


class TestOracleEquivalence:
    def test_random_interior_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            k = int(rng.integers(1, 5))
            q = (lambda m: (m + m.T) / 2)(rng.uniform(0, 1, size=(k, k)))
            pi = rng.dirichlet(np.ones(k))
            g = SBMGraphon(q, pi)
            lam = max(g.lambda_max(), 1e-6)
            if rng.random() < 0.5:
                eta = np.array([rng.uniform(0.1, 2.0), rng.uniform(0.0, 0.75 / lam)])
                spec = LQHomogeneous(
                    strategy_set=StrategySet(0.0, 1e6),
                    xi=ParameterBox(np.zeros(2), eta + 1.0),
                )
                direct = solve_lq_homogeneous(g, eta).strategy
            else:
                eta = rng.uniform(0.05, 0.75 / lam, size=k)
                spec = LQSBM(
                    theta1=1.0,
                    strategy_set=StrategySet(0.0, 1e6),
                    xi=ParameterBox(np.zeros(k), eta + 1.0),
                )
                direct = PiecewiseConstantFn(
                    g.cell_boundaries(), solve_values(g, spec, eta)[0])
            iterated = solve_fixed_point(g, spec, eta, tol=1e-12).strategy
            assert sup_distance(iterated, direct) <= 1e-11

    def test_monotonicity_in_eta(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            q = (lambda m: (m + m.T) / 2)(rng.uniform(0, 1, size=(k, k)))
            pi = rng.dirichlet(np.ones(k))
            g = SBMGraphon(q, pi)
            lam = g.lambda_max()
            eta = rng.uniform(0.05, 0.7 / lam, size=k)
            spec = unbounded(LQSBM, eta, theta1=1.0)
            base, _ = solve_values(g, spec, eta)
            i = int(rng.integers(0, k))
            bumped = eta.copy()
            bumped[i] = min(bumped[i] + 0.1 * eta[i], 0.95 / lam)
            higher, _ = solve_values(g, spec, bumped)
            assert np.all(higher >= base - 1e-12)


class TestGradients:
    def test_homogeneous_decoupled_values(self, sbm2):
        spec = wide_homogeneous()
        eta = np.array([0.7, 0.0])
        _, _, grad = gradient_values(sbm2, spec, eta)
        ones = np.ones(2)
        w_ones = (Q2 * PI2[None, :]) @ ones
        assert grad[:, 0] == pytest.approx(ones, abs=1e-14)
        assert grad[:, 1] == pytest.approx(0.7 * w_ones, abs=1e-14)

    def test_gradient_eta1_scaling_identity(self, sbm4):
        spec = wide_homogeneous()
        eta = np.array([0.9, 0.6])
        s, _, grad = gradient_values(sbm4, spec, eta)
        assert eta[0] * grad[:, 0] == pytest.approx(s, abs=1e-13)

    def test_sbm_gradient_matches_finite_differences(self, sbm4, sbm4_game):
        _, _, analytic = gradient_values(sbm4, sbm4_game, ETA4)
        fd = fd_gradient(sbm4, sbm4_game, ETA4, h=1e-5)
        for i in range(4):
            scale = max(1.0, np.abs(analytic[:, i]).max())
            assert np.abs(fd[:, i] - analytic[:, i]).max() / scale <= 1e-5

    def test_grid_graphon_gradient(self):
        g = GridGraphon.from_kernel(SBMGraphon(Q2, PI2), 10)
        spec = wide_homogeneous()
        eta = np.array([1.1, 0.8])
        _, _, analytic = gradient_values(g, spec, eta)
        fd = fd_gradient(g, spec, eta)
        assert np.abs(fd - analytic).max() <= 1e-6

    def test_not_interior_refused(self):
        g = ConstantGraphon(0.5)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 1.5),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, 1.5])),
        )
        obs = model_equilibrium_fn(g, spec, [1.0, 1.0])
        with pytest.raises(NotInterior):
            objective_gradient(obs, g, spec, [1.0, 1.0])
        with pytest.raises(NotInterior):
            hessian(obs, g, spec, [1.0, 1.0])


class TestSecondDerivatives:
    def test_homogeneous_eta1_curvature_is_zero(self, sbm4):
        spec = wide_homogeneous()
        *_, hess = second_derivative_values(sbm4, spec, [0.8, 0.5])
        assert np.all(hess[0, 0] == 0.0)

    def test_symmetry_by_construction(self, sbm4, sbm4_game):
        *_, hess = second_derivative_values(sbm4, sbm4_game, ETA4)
        for i in range(4):
            for j in range(4):
                assert np.array_equal(hess[i, j], hess[j, i])

    def test_sbm_second_matches_finite_differences(self, sbm4, sbm4_game):
        *_, hess = second_derivative_values(sbm4, sbm4_game, ETA4)
        h = 1e-4
        eta = ETA4
        s0, _ = solve_values(sbm4, sbm4_game, eta)

        def solve_at(e):
            s, _ = solve_values(sbm4, sbm4_game, e)
            return s

        worst = 0.0
        for i in range(4):
            for j in range(4):
                ei = np.zeros(4)
                ej = np.zeros(4)
                ei[i] = h
                ej[j] = h
                if i == j:
                    fd = (solve_at(eta + ei) - 2 * s0 + solve_at(eta - ei)) / h**2
                else:
                    fd = (
                        solve_at(eta + ei + ej)
                        - solve_at(eta + ei - ej)
                        - solve_at(eta - ei + ej)
                        + solve_at(eta - ei - ej)
                    ) / (4 * h**2)
                analytic = hess[i, j]
                scale = max(1.0, np.abs(analytic).max())
                worst = max(worst, np.abs(fd - analytic).max() / scale)
        assert worst <= 1e-4

    def test_homogeneous_neumann_series_cross_check(self, sbm2):
        # the resolvent derivatives equal the term-by-term differentiated
        # power series sum_k eta2^k W^k 1, truncated far below rounding
        spec = wide_homogeneous()
        eta = np.array([0.9, 0.6])
        a = sbm2.operator_matrix()
        norm_inf = sbm2.sup_degree()
        ones = np.ones(2)
        f0 = np.zeros(2)
        f1 = np.zeros(2)
        f2 = np.zeros(2)
        term = ones.copy()  # W^k 1
        k = 0
        while (eta[1] * norm_inf) ** max(k - 2, 0) >= 1e-14 and k < 2000:
            f0 += eta[1] ** k * term
            if k >= 1:
                f1 += k * eta[1] ** (k - 1) * term
            if k >= 2:
                f2 += k * (k - 1) * eta[1] ** (k - 2) * term
            term = a @ term
            k += 1
        _, _, grad, hess = second_derivative_values(sbm2, spec, eta)
        assert grad[:, 0] == pytest.approx(f0, rel=1e-12)
        assert grad[:, 1] == pytest.approx(eta[0] * f1, rel=1e-12)
        assert hess[0, 1] == pytest.approx(f1, rel=1e-12)
        assert hess[1, 1] == pytest.approx(eta[0] * f2, rel=1e-12)


def random_block_kernel(k, seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, size=(k, k))
    return SBMGraphon((q + q.T) / 2, rng.dirichlet(np.ones(k))), rng


def smooth_grid_kernel(m=100):
    """W(x, y) = 0.8 exp(-3 |x - y|) (0.4 + 0.6 sqrt(x y)) at cell centres."""
    c = (np.arange(m) + 0.5) / m
    return GridGraphon(0.8 * np.exp(-3.0 * np.abs(c[:, None] - c[None, :]))
                       * (0.4 + 0.6 * np.sqrt(np.outer(c, c))))


class TestResolventCoreProperties:
    """fd_check at both orders, an exactly symmetric Hessian, and agreement
    with the best-response fixed point, for both games on random block
    kernels and on a smooth 100-cell grid kernel."""

    @staticmethod
    def check(g, spec, eta):
        assert fd_check(g, spec, eta, order=1) <= 1e-5
        assert fd_check(g, spec, eta, order=2) <= 1e-4
        s, _, _, hess = second_derivative_values(g, spec, eta)
        assert np.array_equal(hess, hess.transpose(1, 0, 2))
        iterated = solve_fixed_point(g, spec, eta, tol=1e-12).strategy.values
        assert np.max(np.abs(iterated - s)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        ratio=st.floats(0.05, 0.75),
        eta1=st.floats(0.1, 2.0),
        community=st.booleans(),
    )
    def test_random_block_kernels(self, k, seed, ratio, eta1, community):
        g, rng = random_block_kernel(k, seed)
        if community:
            eta = rng.uniform(0.05, 1.0, size=k) * ratio / g.lambda_max()
            spec = unbounded(LQSBM, eta, theta1=1.0)
        else:
            eta = np.array([eta1, ratio / g.lambda_max()])
            spec = unbounded(LQHomogeneous, eta)
        self.check(g, spec, eta)

    @settings(max_examples=10, deadline=None)
    @given(eta1=st.floats(0.1, 2.0), ratio=st.floats(0.0, 0.75))
    def test_grid_kernel_homogeneous(self, eta1, ratio):
        g = smooth_grid_kernel()
        eta = np.array([eta1, ratio / g.lambda_max()])
        self.check(g, unbounded(LQHomogeneous, eta), eta)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        ratio=st.floats(0.0, 0.95),
        eta1=st.floats(0.0, 2.0),
        community=st.booleans(),
    )
    def test_monotone_in_eta(self, k, seed, ratio, eta1, community):
        # with A >= 0 and theta >= 0 every term of the Neumann series
        # sum_j (diag(theta2) A)^j is elementwise nonnegative, and so are
        # the partial derivatives it produces
        g, rng = random_block_kernel(k, seed)
        if community:
            eta = rng.uniform(0.0, 1.0, size=k) * ratio / g.lambda_max()
            spec = unbounded(LQSBM, eta, theta1=1.0)
        else:
            eta = np.array([eta1, ratio / g.lambda_max()])
            spec = unbounded(LQHomogeneous, eta)
        _, _, grad = gradient_values(g, spec, eta)
        assert np.all(grad >= 0.0)

    def test_community_game_refuses_a_grid_kernel(self, sbm4_game):
        with pytest.raises(TypeError):
            solve_values(smooth_grid_kernel(4), sbm4_game, ETA4)


def central_differences(f, eta, h):
    """Central-difference gradient and Hessian of a scalar function."""
    e = np.eye(eta.size) * h
    grad = np.array([(f(eta + d) - f(eta - d)) / (2 * h) for d in e])
    hess = np.array([[
        (f(eta + di + dj) - f(eta + di - dj) - f(eta - di + dj)
         + f(eta - di - dj)) / (4 * h * h)
        for dj in e] for di in e])
    return grad, hess


class TestObjectiveDerivativeProperties:
    """The gradient and Hessian of J, read from the resolvent arrays,
    against central differences of J for a rough observation, for both
    games on random block kernels."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        ratio=st.floats(0.05, 0.75),
        eta1=st.floats(0.1, 2.0),
        community=st.booleans(),
        cells=st.integers(1, 60),
    )
    def test_random_block_kernels(self, k, seed, ratio, eta1, community, cells):
        g, rng = random_block_kernel(k, seed)
        if community:
            eta = rng.uniform(0.05, 1.0, size=k) * ratio / g.lambda_max()
            spec = unbounded(LQSBM, eta, theta1=1.0)
        else:
            eta = np.array([eta1, ratio / g.lambda_max()])
            spec = unbounded(LQHomogeneous, eta)
        s, _ = solve_values(g, spec, eta)
        obs = interpolate_equilibrium(rng.uniform(0.0, 2.0 * s.max(), cells))
        grad = objective_gradient(obs, g, spec, eta)
        hess = hessian(obs, g, spec, eta).matrix
        assert np.array_equal(hess, hess.T)

        def j(e):
            return objective(obs, g, spec, e)

        fd_grad, _ = central_differences(j, eta, 1e-6)
        _, fd_hess = central_differences(j, eta, 1e-4)
        assert np.abs(fd_grad - grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())
        assert np.abs(fd_hess - hess).max() <= 1e-4 * max(1.0, np.abs(hess).max())
