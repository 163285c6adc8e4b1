import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphongames import (
    EmptyVector,
    MalformedPartition,
    OutOfDomain,
    PiecewiseConstantFn,
    cell_integrals,
    integrate_product,
    interpolate_equilibrium,
    l2_distance,
    sup_distance,
)


def riemann_l2_distance(f, g, cells=10**6):
    """Midpoint Riemann oracle; exact when all breakpoints lie on the grid."""
    xs = (np.arange(cells) + 0.5) / cells
    return float(np.sqrt(np.mean((f(xs) - g(xs)) ** 2)))


def riemann_product(f, g, cells=10**6):
    xs = (np.arange(cells) + 0.5) / cells
    return float(np.mean(f(xs) * g(xs)))


def grid_fn(rng, pieces):
    """Random step function with breakpoints on the 1e-3 grid, so the 1e6
    cell Riemann oracle is exact."""
    cuts = np.sort(rng.choice(np.arange(1, 1000), size=pieces - 1, replace=False))
    bp = np.concatenate([[0.0], cuts / 1000.0, [1.0]])
    return PiecewiseConstantFn(bp, rng.uniform(-2.0, 2.0, size=pieces))


def partitions(draw):
    interior = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            max_size=6,
            unique=True,
        )
    )
    return np.array(sorted([0.0] + interior + [1.0]))


fn_strategy = st.builds(
    lambda cuts, seed: PiecewiseConstantFn(
        cuts, np.random.default_rng(seed).uniform(-3, 3, size=cuts.size - 1)
    ),
    st.composite(partitions)(),
    st.integers(min_value=0, max_value=2**31),
)


class TestMakePiecewise:
    """Validated construction of a step function from raw sequences."""

    def test_single_interval(self):
        f = PiecewiseConstantFn([0, 1], [3.0])
        assert f(0.0) == 3.0 and f(0.7) == 3.0 and f(1.0) == 3.0

    def test_two_intervals(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 0.0])
        assert f(0.25) == 1.0
        assert f(0.5) == 0.0
        assert f(1.0) == 0.0

    def test_non_monotone_rejected(self):
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0, 1, 0.5], [1.0, 0.0])

    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0, 0.9], [1.0])
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0.1, 1], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0, 0.5, 1], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0, 1], [np.inf])

    def test_out_of_domain_evaluation(self):
        f = PiecewiseConstantFn.constant(1.0)
        with pytest.raises(OutOfDomain):
            f(-0.1)
        with pytest.raises(OutOfDomain):
            f(1.1)


class TestInterpolate:
    def test_single_entry(self):
        f = interpolate_equilibrium([2.0])
        assert f(0.3) == 2.0 and f.values.size == 1

    def test_two_entries(self):
        f = interpolate_equilibrium([1.0, 3.0])
        assert f(0.25) == 1.0 and f(0.75) == 3.0 and f(0.5) == 3.0

    def test_constant_vector_invariance(self):
        for n in (1, 7, 64):
            f = interpolate_equilibrium(np.full(n, 4.2))
            xs = np.linspace(0, 1, 23)
            assert np.all(f(xs) == 4.2)

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            interpolate_equilibrium([])


class TestL2Distance:
    def test_identity(self):
        f = PiecewiseConstantFn([0, 0.3, 1], [1.0, -2.0])
        assert l2_distance(f, f) == 0.0

    def test_unit_step_half_interval(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 0.0])
        g = PiecewiseConstantFn.constant(0.0)
        assert l2_distance(f, g) == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_interleaved_vs_riemann_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = grid_fn(rng, 9)
            g = grid_fn(rng, 6)
            assert l2_distance(f, g) == pytest.approx(
                riemann_l2_distance(f, g), abs=1e-12
            )


class TestIntegrateProduct:
    def test_normalization(self):
        one = PiecewiseConstantFn.constant(1.0)
        assert integrate_product(one, one) == 1.0

    def test_mean_of_step(self):
        one = PiecewiseConstantFn.constant(1.0)
        step = PiecewiseConstantFn([0, 0.5, 1], [1.0, 3.0])
        assert integrate_product(one, step) == pytest.approx(2.0, abs=1e-15)

    def test_random_vs_riemann_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            f = grid_fn(rng, 8)
            g = grid_fn(rng, 11)
            assert integrate_product(f, g) == pytest.approx(
                riemann_product(f, g), abs=1e-12
            )


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(fn_strategy, fn_strategy)
    def test_symmetry_and_nonnegativity(self, f, g):
        d = l2_distance(f, g)
        assert d >= 0.0
        assert d == pytest.approx(l2_distance(g, f), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(fn_strategy, fn_strategy, fn_strategy)
    def test_triangle_inequality(self, f, g, h):
        assert l2_distance(f, h) <= l2_distance(f, g) + l2_distance(g, h) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(fn_strategy, fn_strategy)
    def test_distance_squared_is_self_product_of_difference(self, f, g):
        d2 = l2_distance(f, g) ** 2
        p = integrate_product(f - g, f - g)
        assert d2 == pytest.approx(p, rel=1e-13, abs=1e-14)

    def test_refinement_invariance(self):
        rng = np.random.default_rng(3)
        f = grid_fn(rng, 5)
        g = grid_fn(rng, 7)
        # refine f's partition without changing the function
        extra = np.union1d(f.breakpoints, [0.123456, 0.654321, 0.999])
        refined = PiecewiseConstantFn(extra, f.resample(extra))
        assert abs(l2_distance(refined, g) - l2_distance(f, g)) <= 1e-14
        assert abs(integrate_product(refined, g) - integrate_product(f, g)) <= 1e-14


class TestMergingAndHelpers:
    def test_merge_coalesces_near_duplicates(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 2.0])
        g = PiecewiseConstantFn([0, 0.5 + 1e-13, 1], [5.0, 6.0])
        merged = (f + g).breakpoints
        assert merged[0] == 0.0 and merged[-1] == 1.0
        assert np.all(np.diff(merged) > 1e-13)
        assert merged.size == 3

    def test_value_at_one_is_last_piece(self):
        f = PiecewiseConstantFn([0, 0.25, 1], [5.0, -1.0])
        assert f(1.0) == -1.0

    def test_arithmetic(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 2.0])
        g = PiecewiseConstantFn([0, 0.25, 1], [10.0, 20.0])
        h = f + g
        assert h(0.1) == 11.0 and h(0.3) == 21.0 and h(0.9) == 22.0
        assert np.all((f - f).values == 0.0)
        assert (2.0 * f)(0.75) == 4.0
        assert (f + 1.0)(0.1) == 2.0
        assert (-f)(0.1) == -1.0

    def test_sup_distance(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 2.0])
        g = PiecewiseConstantFn.constant(0.0)
        assert sup_distance(f, g) == 2.0

    def test_cell_integrals(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [2.0, 4.0])
        got = cell_integrals(f, np.array([0.0, 0.25, 0.75, 1.0]))
        assert got == pytest.approx([0.5, 1.5, 1.0], abs=1e-15)
        assert cell_integrals(f, f.breakpoints) == pytest.approx([1.0, 2.0])

    def test_integral_and_norm(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 3.0])
        one, zero = PiecewiseConstantFn.constant(1.0), PiecewiseConstantFn.constant(0.0)
        assert integrate_product(f, one) == pytest.approx(2.0, abs=1e-15)
        assert l2_distance(f, zero) == pytest.approx(np.sqrt(5.0), abs=1e-15)
