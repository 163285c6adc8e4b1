import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphongames import (
    ConstantGraphon,
    LQAffine,
    LQHomogeneous,
    LQSBM,
    ParameterBox,
    StrategySet,
    contraction_margin,
    estimate,
    observe,
    sample_network,
    solve_network_game,
)
from graphongames.equilibrium import _project, solve_values
from conftest import ETA4, PI4, Q4, random_block_kernel, smooth_grid_kernel


class TestStrategySet:
    def test_invalid(self):
        with pytest.raises(ValueError):
            StrategySet(1.0, 1.0)
        with pytest.raises(ValueError):
            StrategySet(0.0, np.inf)

    def test_interior_band(self):
        s = StrategySet(0.0, 10.0)
        assert s.is_interior([0.5, 2.0, 9.9])
        assert not s.is_interior([0.5, 10.0])
        assert not s.is_interior([1e-10, 5.0])


class TestParameterBox:
    def test_membership(self):
        box = ParameterBox(np.array([0.0, 0.1]), np.array([1.0, 2.0]))
        assert box.contains([0.5, 1.0])
        assert box.contains([0.0, 2.0])
        assert not box.contains_interior([0.0, 2.0])
        assert not box.contains([1.5, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            ParameterBox(np.array([-0.1, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ParameterBox(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="inf"):
            ParameterBox(np.array([0.0]), np.array([np.inf]))

    @pytest.mark.parametrize("lower, upper", [
        ([[0.0, 0.0]], [[1.0, 1.0]]),  # 2-d
        ([0.0, 0.0], [1.0]),  # unequal lengths
    ])
    def test_bounds_are_vectors_of_one_length(self, lower, upper):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            ParameterBox(np.array(lower), np.array(upper))


def best_response(t1, t2, z):
    """One step of the projected loop on the strategy set [0, 10], from
    the zero profile, against the aggregate z."""
    s, _ = _project(lambda s: np.full(1, z), np.full(1, t1), t2,
                    StrategySet(0.0, 10.0), np.inf, 1)
    return float(s[0])


class TestBestResponse:
    """The best response to aggregate z is the clip of theta1 + theta2 z to
    the strategy set, the step the projected loop takes in both games."""

    def test_interior(self):
        assert best_response(0.8, 0.6, 0.0) == 0.8

    def test_projection_high(self):
        assert best_response(2.0, 5.0, 2.0) == 10.0

    def test_projection_low(self):
        assert best_response(1.0, 1.0, -2.0) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(0, 3),
        st.floats(0, 3),
    )
    def test_nonexpansive(self, z1, z2, t1, t2):
        lhs = abs(best_response(t1, t2, z1) - best_response(t1, t2, z2))
        assert lhs <= abs(t2) * abs(z1 - z2) + 1e-12


def _theta_at(spec, g, eta, x):
    """(theta1, theta2) of the agent at label ``x``: the cell thetas of
    ``g``'s partition read at the cell that holds ``x``."""
    t1, t2 = spec.cell_thetas(g, eta)
    i = int(g.cell_index(x))
    return float(t1[i]), float(t2[i])


class TestThetaOfEta:
    def test_homogeneous(self, homogeneous_game, sbm4):
        for x in (0.0, 0.4, 1.0):
            assert _theta_at(homogeneous_game, sbm4, [0.8, 0.6], x) == (0.8, 0.6)

    def test_benchmark_communities(self, sbm4_game, sbm4):
        assert _theta_at(sbm4_game, sbm4, ETA4, 0.3) == (1.0, 0.6)
        assert _theta_at(sbm4_game, sbm4, ETA4, 0.1) == (1.0, 0.8)
        assert _theta_at(sbm4_game, sbm4, ETA4, 0.99) == (1.0, 0.8)

    def test_closed_last_community(self, sbm4_game, sbm4):
        assert _theta_at(sbm4_game, sbm4, ETA4, 1.0) == (1.0, ETA4[-1])

    def test_profile_matches_community_partition(self, sbm4_game, sbm4):
        mids = np.array([0.125, 0.375, 0.625, 0.875])
        _, t2 = sbm4_game.cell_thetas(sbm4, ETA4)
        assert np.array_equal(t2[sbm4.cell_index(mids)], ETA4)


class TestAffineMaps:
    def test_homogeneous_shares_both_parameters(self, homogeneous_game, sbm4):
        b1, d1, b2, d2 = homogeneous_game.affine_maps(sbm4)
        eta = np.array([0.8, 0.6])
        assert np.array_equal(b1 + d1 @ eta, np.full(4, 0.8))
        assert np.array_equal(b2 + d2 @ eta, np.full(4, 0.6))
        assert contraction_margin(homogeneous_game, sbm4, eta) \
            == 1.0 - sbm4.lambda_max() * 0.6

    def test_community_game_one_effect_per_community(self, sbm4_game, sbm4):
        b1, d1, b2, d2 = sbm4_game.affine_maps(sbm4)
        assert np.array_equal(b1 + d1 @ ETA4, np.ones(4))
        assert np.array_equal(b2 + d2 @ ETA4, ETA4)
        assert contraction_margin(sbm4_game, sbm4, ETA4) \
            == 1.0 - sbm4.lambda_max() * np.max(ETA4)

    def test_community_count_must_match_the_box(self, sbm4_game, sbm2):
        with pytest.raises(ValueError, match="communities"):
            sbm4_game.affine_maps(sbm2)

    def test_smallest_margin_is_at_the_largest_effect(self, sbm4_game, sbm4):
        stack = np.array([ETA4, 0.5 * ETA4, [0.1, 1.1, 0.2, 0.3]])
        assert min(contraction_margin(sbm4_game, sbm4, eta) for eta in stack) \
            == 1.0 - sbm4.lambda_max() * 1.1


class TestContractionMargin:
    def test_constant_half(self):
        spec = LQHomogeneous(
            strategy_set=StrategySet(0, 10),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([5.0, 1.0])),
        )
        assert contraction_margin(spec, ConstantGraphon(0.5)) == pytest.approx(0.5)

    def test_benchmark_positive_on_unit_box(self, sbm4):
        spec = LQSBM(
            theta1=1.0,
            strategy_set=StrategySet(0, 10),
            xi=ParameterBox(np.zeros(4), np.ones(4)),
        )
        # oracle: dense 4x4 eigensolve says lambda_max < 1
        lam = np.max(np.linalg.eigvals(Q4 * PI4[None, :]).real)
        assert lam < 1.0
        assert contraction_margin(spec, sbm4) == pytest.approx(1.0 - lam, abs=1e-12)
        assert contraction_margin(spec, sbm4) > 0.0

    def test_boundary_of_contraction(self):
        spec = LQHomogeneous(
            strategy_set=StrategySet(0, 10),
            xi=ParameterBox(np.array([0.0, 0.0]), np.array([5.0, 1.0])),
        )
        assert contraction_margin(spec, ConstantGraphon(1.0)) == 0.0

    def test_margin_at_specific_eta(self, sbm4_game, sbm4):
        lam = sbm4.lambda_max()
        margin = contraction_margin(sbm4_game, sbm4, eta=ETA4)
        assert margin == pytest.approx(1.0 - lam * np.max(ETA4), abs=1e-12)


def _corner_margin(spec, g) -> float:
    """The margin over the box by its definition: the smallest margin at a
    corner, with all 2^p corners listed."""
    corners = itertools.product(*zip(spec.xi.lower, spec.xi.upper))
    return min(contraction_margin(spec, g, c) for c in corners)


def random_admissible_game(shared, p, k, seed):
    """A random kernel with k cells, a random LQAffine game on it with
    p parameters and one shared row or k rows, and the generator that drew
    them. D2 has mixed signs and some entries exactly 0; b2 covers the most
    negative value D2 eta can take on the box, some rows exactly, so theta2
    >= 0 there, with minimum 0 up to rounding on those rows."""
    g, rng = random_block_kernel(k, seed)
    rows = 1 if shared else k
    lo = rng.uniform(0.0, 1.0, p) * rng.integers(0, 2, p)
    hi = lo + rng.uniform(0.01, 2.0, p)
    d2 = rng.uniform(-1.0, 1.0, (rows, p)) * rng.integers(0, 2, (rows, p))
    b2 = np.maximum(-d2, 0.0) @ hi + rng.uniform(0.0, 1.0, rows) * \
        rng.integers(0, 2, rows)
    spec = LQAffine(StrategySet(0.0, 10.0), ParameterBox(lo, hi),
                    rng.uniform(0.0, 1.0, rows),
                    rng.uniform(0.0, 1.0, (rows, p)), b2, d2)
    return g, spec, rng


class TestMarginOverTheBox:
    """The closed-form margin over the box equals the worst corner's, and
    bounds the margin at every parameter in the box."""

    @settings(max_examples=200, deadline=None)
    @given(shared=st.booleans(), p=st.integers(1, 4), k=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_worst_corner(self, shared, p, k, seed):
        g, spec, rng = random_admissible_game(shared, p, k, seed)
        # the margin's scale: lambda_max times the terms theta2 sums
        scale = max(1.0, g.lambda_max() * float(
            (np.abs(spec.b2) + np.abs(spec.d2) @ spec.xi.upper).max()))
        tol = 4 * np.finfo(float).eps * scale
        margin = contraction_margin(spec, g)
        assert abs(margin - _corner_margin(spec, g)) <= tol
        for eta in spec.xi.sample(rng, 8):
            assert contraction_margin(spec, g, eta) >= margin - tol

    def test_theta2_minimum_rounded_below_zero_is_admitted(self):
        # theta2's minimum over the box is 0, summed as about -1e-17
        g, spec, _ = random_admissible_game(True, 2, 1, 136)
        lowest = spec.b2 + np.minimum(spec.d2 * spec.xi.lower,
                                      spec.d2 * spec.xi.upper).sum(axis=1)
        assert -1e-15 < lowest[0] < 0.0
        assert contraction_margin(spec, g) == _corner_margin(spec, g)

    def test_benchmark_games_match_the_corners_exactly(self, sbm4_game, sbm4):
        grid_game = LQHomogeneous(
            strategy_set=StrategySet(0.0, 50.0),
            xi=ParameterBox(np.array([0.1, 0.0]), np.array([2.0, 1.5])),
        )
        for spec, g in ((sbm4_game, sbm4), (grid_game, smooth_grid_kernel())):
            assert contraction_margin(spec, g) == _corner_margin(spec, g)


class TestSpecInvariants:
    def test_sbm_game_requires_positive_theta1(self):
        with pytest.raises(ValueError):
            LQSBM(
                theta1=0.0,
                strategy_set=StrategySet(0, 10),
                xi=ParameterBox(np.zeros(2), np.ones(2)),
            )

    def test_sbm_game_requires_nonnegative_strategies(self):
        with pytest.raises(ValueError):
            LQSBM(
                theta1=1.0,
                strategy_set=StrategySet(-1.0, 10),
                xi=ParameterBox(np.zeros(2), np.ones(2)),
            )

    def test_homogeneous_dimension(self):
        with pytest.raises(ValueError):
            LQHomogeneous(
                strategy_set=StrategySet(0, 10),
                xi=ParameterBox(np.zeros(3), np.ones(3)),
            )


class TestLQAffine:
    """A game is its affine maps: the same maps written out as data give
    the named games' values bit for bit, and bad maps are refused."""

    HOMOGENEOUS = ([0.0], [[1.0, 0.0]], [0.0], [[0.0, 1.0]])
    COMMUNITY = (np.ones(4), np.zeros((4, 4)), np.zeros(4), np.eye(4))

    @pytest.mark.parametrize("name, kernel, maps, eta", [
        ("homogeneous_game", "sbm4", HOMOGENEOUS, [0.8, 0.6]),
        ("homogeneous_game", "grid", HOMOGENEOUS, [0.8, 0.6]),
        ("sbm4_game", "sbm4", COMMUNITY, ETA4),
    ])
    def test_maps_as_data_match_the_named_game(self, request, sbm4, name,
                                               kernel, maps, eta):
        named = request.getfixturevalue(name)
        data = LQAffine(named.strategy_set, named.xi, *maps)
        g = sbm4 if kernel == "sbm4" else smooth_grid_kernel()
        for a, b in zip(solve_values(g, named, eta), solve_values(g, data, eta)):
            assert np.array_equal(a, b)
        net = sample_network(g, 200, seed=3)
        eq_named = solve_network_game(net, named, eta)
        eq_data = solve_network_game(net, data, eta)
        assert np.array_equal(eq_named.strategies, eq_data.strategies)
        obs = observe(net, eq_named)
        assert np.array_equal(estimate(obs, g, named).eta_hat,
                              estimate(obs, g, data).eta_hat)

    def test_mismatched_map_shapes(self, homogeneous_game):
        ss, xi = homogeneous_game.strategy_set, homogeneous_game.xi
        with pytest.raises(ValueError, match="shapes"):
            LQAffine(ss, xi, [0.0], [[1.0, 0.0, 0.0]], [0.0], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="shapes"):
            LQAffine(ss, xi, [0.0, 0.0], [[1.0, 0.0]], [0.0], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="shapes"):
            LQAffine(ss, xi, [], np.zeros((0, 2)), [], np.zeros((0, 2)))

    def test_theta2_negative_at_a_box_corner(self, homogeneous_game):
        # theta2 = 1 - eta2 is 1 at eta2 = 0 but -0.5 at the corner eta2 = 1.5
        ss, xi = homogeneous_game.strategy_set, homogeneous_game.xi
        with pytest.raises(ValueError, match="negative"):
            LQAffine(ss, xi, [0.0], [[1.0, 0.0]], [1.0], [[0.0, -1.0]])
        # 1.5 - eta2 is nonnegative on the whole box
        LQAffine(ss, xi, [0.0], [[1.0, 0.0]], [1.5], [[0.0, -1.0]])
        # a minimum of -1e-12 lies far beyond the sum's rounding
        with pytest.raises(ValueError, match="negative"):
            LQAffine(ss, xi, [0.0], [[1.0, 0.0]], [1.5 - 1e-12], [[0.0, -1.0]])

    def test_homogeneous_game_requires_nonnegative_strategies(self):
        with pytest.raises(ValueError, match="nonnegative strategy set"):
            LQHomogeneous(
                strategy_set=StrategySet(-1.0, 10),
                xi=ParameterBox(np.zeros(2), np.ones(2)),
            )

    def test_community_maps_are_read_only(self, sbm4_game, sbm4):
        for m in sbm4_game.affine_maps(sbm4):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0] = 1.0
