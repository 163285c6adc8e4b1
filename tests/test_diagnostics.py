import numpy as np
import pytest

from graphongames import diagnostics
from graphongames import (
    ConstantGraphon,
    DegenerateAggregate,
    Graphon,
    LQHomogeneous,
    LQSBM,
    NotInterior,
    ParameterBox,
    StrategySet,
    empirical_identifiability_test,
    fd_check,
    homogeneous_identifiability,
    sample_network,
    sbm_identifiability_constant,
    solve_fixed_point,
    solve_network_game,
)
from graphongames.equilibrium import solve_values
from conftest import ETA4, PI2, smooth_grid_kernel, wide_homogeneous


def sbm_game(k):
    return LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 10.0),
                 xi=ParameterBox(np.zeros(k), np.ones(k)))


class TestCheckInterior:
    def test_plain_values(self):
        s = StrategySet(0.0, 10.0)
        assert s.is_interior(np.array([0.5, 2.0]))
        assert not s.is_interior(np.array([0.5, 10.0]))

    def test_benchmark_equilibrium_interior(self, sbm4, sbm4_game):
        s, _ = solve_values(sbm4, sbm4_game, ETA4)
        assert sbm4_game.strategy_set.is_interior(s)
        assert solve_fixed_point(sbm4, sbm4_game, ETA4).interior

    def test_agrees_with_solver_flag(self, sbm4, sbm4_game):
        eq = solve_fixed_point(sbm4, sbm4_game, ETA4)
        assert sbm4_game.strategy_set.is_interior(eq.strategies) == eq.interior
        narrow = LQHomogeneous(
            strategy_set=StrategySet(0.0, 1.5),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, 1.5])),
        )
        eq2 = solve_fixed_point(ConstantGraphon(0.5), narrow, [1.0, 1.0])
        assert narrow.strategy_set.is_interior(eq2.strategies) == eq2.interior is False
        net = sample_network(sbm4, 100, seed=3)
        neq = solve_network_game(net, sbm4_game, ETA4)
        assert sbm4_game.strategy_set.is_interior(neq.strategies) == neq.interior is True
        neq2 = solve_network_game(sample_network(ConstantGraphon(0.5), 20, seed=3),
                                  narrow, [1.0, 1.0])
        assert narrow.strategy_set.is_interior(neq2.strategies) == neq2.interior is False


class TestHomogeneousIdentifiability:
    def test_constant_kernel_not_identifiable(self):
        c, eta = 0.5, np.array([1.0, 1.0])
        report = homogeneous_identifiability(ConstantGraphon(c),
                                             wide_homogeneous(), eta)
        assert not report.identifiable
        assert report.constant is None
        expected_gamma = c * eta[0] / (1 - eta[1] * c)
        assert report.gamma == pytest.approx(expected_gamma, abs=1e-12)

    def test_two_block_identifiable(self, sbm2):
        # oracle: closed-form aggregates (Q diag(pi) s) have unequal entries
        _, z = solve_values(sbm2, sbm_game(2), [0.5, 0.5])
        assert z[0] != pytest.approx(z[1], abs=1e-3)
        report = homogeneous_identifiability(sbm2, wide_homogeneous(),
                                             np.array([1.0, 0.5]))
        assert report.identifiable
        assert report.constant > 0
        assert report.detail["z_perp_norm"] > 1e-3

    def test_lambda_m_value_at_gamma_zero(self):
        # ((0 + 2) - sqrt(4 - 4)) / 2 = 1: check through a zero-interaction
        # kernel pushed just above the constant-aggregate tolerance
        report = homogeneous_identifiability(ConstantGraphon(0.0),
                                             wide_homogeneous(), [1.0, 0.5])
        assert not report.identifiable  # gamma = 0, aggregate exactly constant
        t = 0.0**2 + 2.0
        assert ((t - np.sqrt(t * t - 4.0)) / 2.0) == pytest.approx(1.0)

    def test_zero_violations_with_computed_constant(self, sbm2):
        eta_bar = np.array([1.0, 0.5])
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 50.0),
            xi=ParameterBox(np.array([0.5, 0.1]), np.array([1.5, 0.9])),
        )
        report = homogeneous_identifiability(sbm2, spec, eta_bar)
        count = empirical_identifiability_test(
            sbm2, spec, eta_bar, report.constant, samples=200, seed=12
        )
        assert count == 0

    def test_refuses_the_community_game(self, sbm2):
        # its constant would bound nothing for theta2 = eta per community
        with pytest.raises(ValueError, match="theta1 = eta1"):
            homogeneous_identifiability(sbm2, sbm_game(2), [0.5, 0.5])


class TestSBMIdentifiability:
    def test_benchmark_constant(self, sbm4, sbm4_game):
        report = sbm_identifiability_constant(sbm4, sbm4_game, ETA4)
        assert report.identifiable
        assert np.isfinite(report.constant) and report.constant > 0
        # equal quarter communities: sqrt(min pi) factor is exactly 0.5
        assert np.sqrt(report.detail["min_weight"]) == 0.5
        # oracle: closed-form aggregates from the dense solve
        _, z = solve_values(sbm4, sbm4_game, ETA4)
        expected = 2.0 / (z.min() * 0.5)
        assert report.constant == pytest.approx(expected, rel=1e-12)

    def test_one_row_game_on_a_grid_kernel(self):
        # one row shared by the 100 cells: every cell's parameter is eta,
        # at distance sqrt(100) |eta - eta_bar|, so the per-cell constant
        # is ten times too loose; the largest ratio over the box is ~3.04
        g = smooth_grid_kernel()
        game = LQSBM(theta1=1.0, strategy_set=StrategySet(0.0, 50.0),
                     xi=ParameterBox(np.array([0.05]),
                                     np.array([0.9 / g.lambda_max()])))
        report = sbm_identifiability_constant(g, game, [0.8])
        _, z = solve_values(g, game, [0.8])
        per_cell = 2.0 / (z.min() * np.sqrt(g.pi.min()))
        assert report.constant == pytest.approx(per_cell / 10.0, rel=1e-12)
        assert empirical_identifiability_test(
            g, game, [0.8], report.constant, samples=2000, seed=0) == 0

    def test_zero_row_degenerate(self):
        q = np.array([[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateAggregate):
            sbm_identifiability_constant(Graphon(q, PI2), sbm_game(2),
                                         [0.1, 0.1])

    def test_refuses_the_homogeneous_game(self, sbm2):
        with pytest.raises(ValueError, match="known theta1"):
            sbm_identifiability_constant(sbm2, wide_homogeneous(), [1.0, 0.5])

    def test_zero_violations_on_benchmark(self, sbm4, sbm4_game):
        report = sbm_identifiability_constant(sbm4, sbm4_game, ETA4)
        count = empirical_identifiability_test(
            sbm4, sbm4_game, ETA4, report.constant, samples=100, seed=0
        )
        assert count == 0

    def test_too_small_constant_falsified(self, sbm4, sbm4_game):
        # the analytic constant is a sufficient bound, not a tight one, so
        # the threshold is the largest ratio ||eta - eta_bar|| / ||s - s_bar||
        # over the very draws the test makes: any smaller constant must be
        # caught, and a constant just above it never is
        weights = sbm4.pi
        s_bar, _ = solve_values(sbm4, sbm4_game, ETA4)
        ratios = []
        for eta in sbm4_game.xi.sample(np.random.default_rng(1), 200):
            s, _ = solve_values(sbm4, sbm4_game, eta)
            dist = np.sqrt(np.dot(weights, (s - s_bar) ** 2))
            ratios.append(np.linalg.norm(eta - ETA4) / dist)
        largest = max(ratios)
        report = sbm_identifiability_constant(sbm4, sbm4_game, ETA4)
        assert largest <= report.constant

        def violations(constant):
            return empirical_identifiability_test(
                sbm4, sbm4_game, ETA4, constant, samples=200, seed=1
            )

        assert violations(largest * (1.0 - 1e-6)) >= 1
        assert violations(largest * (1.0 + 1e-9)) == 0


class TestEmpirical:
    def test_eta_bar_itself_never_violates(self, sbm4, sbm4_game):
        # both sides are exactly zero at eta == eta_bar, which must count as
        # satisfied for any constant; pin the sampler to the point itself
        spec = type(sbm4_game)(
            theta1=1.0,
            strategy_set=sbm4_game.strategy_set,
            xi=ParameterBox(np.full(4, 0.01), np.full(4, 1.2)),
        )
        spec.xi.sample = lambda rng, size: np.tile(ETA4, (size, 1))
        count = empirical_identifiability_test(
            sbm4, spec, ETA4, constant=1e-6, samples=5, seed=3
        )
        assert count == 0

    def test_rejects_nonpositive_constant(self, sbm4, sbm4_game):
        with pytest.raises(ValueError):
            empirical_identifiability_test(sbm4, sbm4_game, ETA4, 0.0)


class TestFDCheck:
    def test_homogeneous_benchmark_first_order(self, sbm4):
        assert fd_check(sbm4, wide_homogeneous(), [0.8, 0.5], order=1) <= 1e-5

    def test_homogeneous_benchmark_second_order(self, sbm4):
        assert fd_check(sbm4, wide_homogeneous(), [0.8, 0.5], order=2) <= 1e-4

    def test_sbm_benchmark_both_orders(self, sbm4, sbm4_game):
        assert fd_check(sbm4, sbm4_game, ETA4, order=1) <= 1e-5
        assert fd_check(sbm4, sbm4_game, ETA4, order=2) <= 1e-4

    def test_linear_regime_is_exact(self, sbm4):
        # eta2 = 0: the equilibrium is linear in eta1 and the resolvent is
        # the identity, so differences carry only rounding noise
        assert fd_check(sbm4, wide_homogeneous(), [0.8, 0.0], order=1) <= 1e-10

    def test_not_interior_refused(self):
        g = ConstantGraphon(0.5)
        spec = LQHomogeneous(
            strategy_set=StrategySet(0.0, 1.5),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([3.0, 1.5])),
        )
        with pytest.raises(NotInterior):
            fd_check(g, spec, [1.0, 1.0], order=1)

    def test_a_wrong_derivative_is_caught(self, monkeypatch, sbm4,
                                          sbm4_game):
        # the community game takes the LU route, the homogeneous one the
        # eigenbasis; a derivative off by 0.1% must fail the limits the
        # tests and the benchmark gate apply
        for spec, eta in ((sbm4_game, ETA4), (wide_homogeneous(), [0.8, 0.5])):
            for order, limit in ((1, 1e-5), (2, 1e-4)):
                with monkeypatch.context() as patch:
                    _scale_output(patch, order + 1)
                    assert fd_check(sbm4, spec, eta, order=order) > limit

    def test_invalid_order(self, sbm4):
        with pytest.raises(ValueError):
            fd_check(sbm4, wide_homogeneous(), [0.8, 0.5], order=3)
        # refused before any solve: solved, this equilibrium would raise
        # NotInterior (test_not_interior_refused)
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            fd_check(ConstantGraphon(0.5), wide_homogeneous(1.5, 1.5),
                     [1.0, 1.0], order=0)


def _scale_output(monkeypatch, position):
    """Make fd_check's kernel solver scale its output at ``position``, G
    (2) or the curvature function (3), by 1.001."""
    real = diagnostics._kernel_resolvent

    class Scaled:
        def __init__(self, solver):
            self.solver, self.cells = solver, solver.cells

        def __call__(self, eta, order):
            out = list(self.solver(eta, order))
            if len(out) > position:
                exact = out[position]
                out[position] = (1.001 * exact if position == 2
                                 else lambda r: 1.001 * exact(r))
            return tuple(out)

    monkeypatch.setattr(diagnostics, "_kernel_resolvent",
                        lambda g, spec: Scaled(real(g, spec)))
