import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphongames
from graphongames import (
    MalformedPartition,
    OutOfDomain,
    PiecewiseConstantFn,
    cell_integrals,
    interpolate_equilibrium,
    l2_distance,
)
from graphongames.functionspace import merge_breakpoints


def riemann_l2_distance(f, g, cells=10**6):
    """Midpoint Riemann oracle; exact when all breakpoints lie on the grid."""
    xs = (np.arange(cells) + 0.5) / cells
    return float(np.sqrt(np.mean((f(xs) - g(xs)) ** 2)))


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
        # endpoints in place, so the order check itself refuses it
        with pytest.raises(MalformedPartition, match="strictly increasing"):
            PiecewiseConstantFn([0, 0.5, 0.5, 1], [1.0, 0.0, 2.0])

    def test_endpoint_mismatch_rejected(self):
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0, 0.9], [1.0])
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0.1, 1], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0, 0.5, 1], [1.0])
        # six values for six intervals, but not as a vector
        with pytest.raises(MalformedPartition, match="one-dimensional"):
            PiecewiseConstantFn(np.linspace(0, 1, 7), np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(MalformedPartition):
            PiecewiseConstantFn([0, 1], [np.inf])
        with pytest.raises(MalformedPartition, match="breakpoints"):
            PiecewiseConstantFn([0, np.nan, 1], [1.0, 0.0])

    def test_out_of_domain_evaluation(self):
        f = PiecewiseConstantFn([0, 1], [1.0])
        with pytest.raises(OutOfDomain):
            f(-0.1)
        with pytest.raises(OutOfDomain):
            f(1.1)

    def test_nan_is_out_of_domain(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 2.0])
        with pytest.raises(OutOfDomain):
            f(np.nan)
        with pytest.raises(OutOfDomain):
            f(np.array([0.25, np.nan, 0.75]))


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
        with pytest.raises(MalformedPartition):
            interpolate_equilibrium([])


class TestL2Distance:
    def test_identity(self):
        f = PiecewiseConstantFn([0, 0.3, 1], [1.0, -2.0])
        assert l2_distance(f, f) == 0.0

    def test_unit_step_half_interval(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 0.0])
        g = PiecewiseConstantFn([0, 1], [0.0])
        assert l2_distance(f, g) == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_interleaved_vs_riemann_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = grid_fn(rng, 9)
            g = grid_fn(rng, 6)
            assert l2_distance(f, g) == pytest.approx(
                riemann_l2_distance(f, g), abs=1e-12
            )


    def test_invariant_to_blas_threads(self):
        # 20,000 noisy values against a four-cell model: a BLAS dot
        # product threads at this length, and its sum then depends on the
        # thread count (it did for seeds 4 and 5 at one and two threads)
        code = (
            "import numpy as np, graphongames as gg; "
            "model = gg.PiecewiseConstantFn([0.0, 0.2, 0.45, 0.75, 1.0], "
            "[0.4, 1.3, 1.7, 2.5]); "
            "xs = (np.arange(20_000) + 0.5) / 20_000; "
            "print([gg.l2_distance(gg.interpolate_equilibrium(model(xs) + "
            "np.random.default_rng(s).normal(0.0, 0.3, xs.size)), model) "
            "for s in range(6)])"
        )
        src = os.path.dirname(os.path.dirname(graphongames.__file__))
        one, two = (
            subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                env=dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                         OPENBLAS_NUM_THREADS=threads,
                         MKL_NUM_THREADS=threads),
            ).stdout
            for threads in ("1", "2")
        )
        assert one == two


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
    def test_distance_squared_from_cell_integrals(self, f, g):
        # ||f - g||^2 = ||sqrt(w) g - a / sqrt(w)||^2 + int f^2 - sum a^2 / w
        # with a the integrals of f over g's cells, of widths w: the
        # statistic the estimator and the harness read
        w = np.diff(g.breakpoints)
        a = cell_integrals(f, g.breakpoints)
        r = np.sqrt(w) * g.values - a / np.sqrt(w)
        ff = np.dot(np.diff(f.breakpoints), f.values ** 2)
        d2 = r @ r + ff - np.dot(a / w, a)
        # abs covers the breakpoints l2_distance coalesces within MERGE_TOL
        assert l2_distance(f, g) ** 2 == pytest.approx(d2, rel=1e-12, abs=1e-9)

    def test_refinement_invariance(self):
        rng = np.random.default_rng(3)
        f = grid_fn(rng, 5)
        g = grid_fn(rng, 7)
        # refine f's partition without changing the function
        extra = np.union1d(f.breakpoints, [0.123456, 0.654321, 0.999])
        refined = PiecewiseConstantFn(extra, f.resample(extra))
        assert abs(l2_distance(refined, g) - l2_distance(f, g)) <= 1e-14
        assert np.abs(cell_integrals(refined, g.breakpoints)
                      - cell_integrals(f, g.breakpoints)).max() <= 1e-14


class TestMergingAndHelpers:
    def test_merge_coalesces_near_duplicates(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 2.0])
        g = PiecewiseConstantFn([0, 0.5 + 1e-13, 1], [5.0, 6.0])
        merged = merge_breakpoints(f, g)
        assert merged[0] == 0.0 and merged[-1] == 1.0
        assert np.all(np.diff(merged) > 1e-13)
        assert merged.size == 3

    def test_value_at_one_is_last_piece(self):
        f = PiecewiseConstantFn([0, 0.25, 1], [5.0, -1.0])
        assert f(1.0) == -1.0

    def test_cell_integrals(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [2.0, 4.0])
        got = cell_integrals(f, np.array([0.0, 0.25, 0.75, 1.0]))
        assert got == pytest.approx([0.5, 1.5, 1.0], abs=1e-15)
        assert cell_integrals(f, f.breakpoints) == pytest.approx([1.0, 2.0])

    def test_integral_and_norm(self):
        f = PiecewiseConstantFn([0, 0.5, 1], [1.0, 3.0])
        zero = PiecewiseConstantFn([0, 1], [0.0])
        assert cell_integrals(f, np.array([0.0, 1.0])) == pytest.approx([2.0], abs=1e-15)
        assert l2_distance(f, zero) == pytest.approx(np.sqrt(5.0), abs=1e-15)
