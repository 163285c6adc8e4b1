import numpy as np
import pytest

from graphongames import (
    ConstantGraphon,
    Graphon,
    GridGraphon,
    OutOfDomain,
    PiecewiseConstantFn,
    cell_integrals,
    estimate,
    model_equilibrium_fn,
)
from conftest import ETA4, PI4, Q2, PI2, Q4, rasterize, smooth_grid_kernel


def random_sbm(rng, k=None):
    k = k or int(rng.integers(1, 5))
    q = rng.uniform(0, 1, size=(k, k))
    q = (q + q.T) / 2
    pi = rng.dirichlet(np.ones(k))
    return Graphon(q, pi)


class TestEval:
    """A kernel value is read through the cell lookup, W(x, y) =
    q[cell_index(x), cell_index(y)], which the sampler and the finite game
    use."""

    def test_constant(self):
        g = ConstantGraphon(0.3)
        assert np.array_equal(g.cell_index([0.0, 0.2, 0.9, 1.0]), [0, 0, 0, 0])

    def test_benchmark_cross_community_zero(self, sbm4):
        # x = 0.1 is in the first community, y = 0.9 in the fourth
        c = sbm4.cell_index([0.1, 0.3, 0.9])
        assert np.array_equal(c, [0, 1, 3])
        assert sbm4.q[c[0], c[2]] == 0.0
        assert sbm4.q[c[0], c[0]] == 0.9
        assert sbm4.q[c[1], c[1]] == 0.2

    def test_symmetry_random_pairs(self, sbm4):
        c = sbm4.cell_index(np.random.default_rng(5).random(50))
        values = sbm4.q[np.ix_(c, c)]
        assert np.array_equal(values, values.T)

    def test_boundary_belongs_to_last_interval(self, sbm4):
        assert sbm4.cell_index(1.0) == 3
        assert sbm4.q[sbm4.cell_index(1.0), sbm4.cell_index(1.0)] == Q4[3, 3]
        # every other cell holds its left bound and not its right one
        inner = sbm4.bounds[1:-1]
        assert np.array_equal(sbm4.cell_index(inner), [1, 2, 3])
        assert np.array_equal(sbm4.cell_index(np.nextafter(inner, 0.0)),
                              [0, 1, 2])
        assert sbm4.cell_index(0.0) == 0

    def test_out_of_domain(self, sbm4):
        for x in (-0.01, 1.01, np.nan, [0.5, np.nan]):
            with pytest.raises(OutOfDomain):
                sbm4.cell_index(x)


def cell_averages(g, f):
    """The values on g's cells of the step function aligned with g's
    partition that has f's integral over every cell."""
    return cell_integrals(f, g.bounds) / g.pi


class TestApplyOperator:
    """The integral operator on a step function aligned with the kernel's
    partition is ``operator_matrix() @ values``; on any other step function
    it acts through the function's cell averages."""

    def test_constant_on_ones(self):
        g = ConstantGraphon(0.4)
        out = g.operator_matrix() @ np.ones(1)
        assert out == pytest.approx([0.4], abs=1e-15)

    def test_sbm_on_aligned_step(self, sbm2):
        s = np.array([2.0, -1.0])
        out = sbm2.operator_matrix() @ s
        expected = (Q2 * PI2[None, :]) @ s
        assert out == pytest.approx(expected, abs=1e-14)

    def test_zero_function(self, sbm4):
        out = sbm4.operator_matrix() @ np.zeros(4)
        assert np.all(out == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_sbm(rng)
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]])
            f1 = PiecewiseConstantFn(bp, rng.uniform(-2, 2, 4))
            f2 = PiecewiseConstantFn(bp, rng.uniform(-2, 2, 4))
            a, b = rng.uniform(-3, 3, 2)
            a_op = g.operator_matrix()
            combo = PiecewiseConstantFn(bp, a * f1.values + b * f2.values)
            lhs = a_op @ cell_averages(g, combo)
            rhs = a * (a_op @ cell_averages(g, f1)) + b * (a_op @ cell_averages(g, f2))
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_unaligned_input_exact(self):
        # integrate by hand: community 1 gets 0.8 * int_{[0,0.5)} f + 0.2 * int_{[0.5,1]} f
        g = Graphon(Q2, PI2)
        f = PiecewiseConstantFn([0, 0.25, 1], [4.0, 8.0])
        out = g.operator_matrix() @ cell_averages(g, f)
        int1 = 4.0 * 0.25 + 8.0 * 0.25  # over [0, 0.5)
        int2 = 8.0 * 0.5  # over [0.5, 1]
        assert out == pytest.approx(
            [0.8 * int1 + 0.2 * int2, 0.2 * int1 + 0.4 * int2], abs=1e-14
        )


class TestLambdaMax:
    def test_constant(self):
        assert ConstantGraphon(0.5).lambda_max() == 0.5

    def test_two_block_hand_value(self, sbm2):
        # characteristic polynomial of Q diag(pi): trace 0.6, det 0.07
        expected = (0.6 + np.sqrt(0.08)) / 2
        assert sbm2.lambda_max() == pytest.approx(expected, abs=1e-12)

    def test_benchmark_below_quarter(self, sbm4):
        # oracle: dense eigensolve of the 4x4 operator matrix
        oracle = np.max(np.linalg.eigvals(Q4 * PI4[None, :]).real)
        lam = sbm4.lambda_max()
        assert lam == pytest.approx(oracle, abs=1e-12)
        assert lam < 0.25
        assert np.max(ETA4) * lam < 1.0

    def test_grid_matches_sbm_at_refining_resolutions(self, sbm4, sbm2):
        for g, res in [(sbm4, 8), (sbm4, 40), (sbm2, 6), (sbm2, 30)]:
            grid = rasterize(g, res)
            assert grid.lambda_max() == pytest.approx(g.lambda_max(), abs=1e-9)

    def test_one_eigensolve_per_instance(self, monkeypatch, homogeneous_game):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: calls.append(m) or eigh(m)
        )
        g = Graphon(Q4, PI4)
        assert g.lambda_max() == g.lambda_max()
        assert len(calls) == 1
        # the estimator's every evaluation reads the grid kernel's one
        # cached eigenbasis
        grid = smooth_grid_kernel()
        observed = model_equilibrium_fn(grid, homogeneous_game, [1.0, 0.9])
        assert estimate(observed, grid, homogeneous_game).converged
        assert grid.lambda_max() == grid.eigen()[0][-1]
        assert len(calls) == 2

    def test_zero_kernel(self):
        assert ConstantGraphon(0.0).lambda_max() == 0.0
        assert GridGraphon(np.zeros((3, 3))).lambda_max() == 0.0


def max_row_sum(g):
    """Essential supremum over x of the degree integral of W(x, y) dy: the
    largest row sum of the operator matrix."""
    return g.operator_matrix().sum(axis=1).max()


class TestSupDegree:
    def test_constant(self):
        assert max_row_sum(ConstantGraphon(0.7)) == 0.7

    def test_two_block_row_sums(self, sbm2):
        assert max_row_sum(sbm2) == pytest.approx(0.5, abs=1e-15)

    def test_dominates_lambda_max(self, sbm4, sbm2):
        rng = np.random.default_rng(13)
        graphons = [sbm4, sbm2, ConstantGraphon(0.3)]
        graphons += [random_sbm(rng) for _ in range(10)]
        graphons += [rasterize(random_sbm(rng), 16) for _ in range(3)]
        for g in graphons:
            assert max_row_sum(g) >= g.lambda_max() - 1e-12


class TestValidate:
    """A kernel is checked once, at construction."""

    def test_benchmark_ok(self, sbm4):
        assert np.array_equal(sbm4.q, Q4)
        assert np.array_equal(sbm4.pi, PI4)
        for a in (sbm4.q, sbm4.pi, sbm4.bounds):
            assert not a.flags.writeable

    def test_asymmetric_flagged(self):
        q = np.array([[0.5, 0.1], [0.2, 0.5]])
        with pytest.raises(ValueError, match="asymmetric"):
            Graphon(q, PI2)

    def test_not_a_simplex_flagged(self):
        with pytest.raises(ValueError, match="not a simplex"):
            Graphon(Q2, np.array([0.5, 0.6]))

    def test_out_of_range_flagged(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ConstantGraphon(1.5)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            GridGraphon(np.array([[-0.1]]))

    @pytest.mark.parametrize("q, pi, message", [
        (Q2, [np.nan, np.nan], "positive"),
        (Q2, [0.5, np.nan], "positive"),
        ([[np.nan, 0.2], [0.2, 0.4]], PI2, r"outside \[0, 1\]"),
        ([[0.8, np.nan], [np.nan, 0.4]], PI2, r"outside \[0, 1\]"),
    ])
    def test_nan_refused(self, q, pi, message):
        # NaN fails every comparison, so each check must be written to
        # fail on it rather than pass
        with pytest.raises(ValueError, match=message):
            Graphon(q, pi)

    def test_shape_errors_raise(self):
        with pytest.raises(ValueError):
            Graphon(np.zeros((2, 3)), PI2)
        with pytest.raises(ValueError):
            Graphon(Q2, np.array([1.0]))


class TestGridIO:
    def test_csv_roundtrip(self, tmp_path):
        mat = np.array([[0.1, 0.2], [0.2, 0.4]])
        path = tmp_path / "kernel.csv"
        np.savetxt(path, mat, delimiter=",")
        g = GridGraphon.from_csv(path)
        assert np.allclose(g.q, mat)
        assert g.pi.size == 2

    def test_rasterization_values(self, sbm2):
        grid = rasterize(sbm2, 4)
        assert grid.q[0, 0] == Q2[0, 0]
        assert grid.q[0, 3] == Q2[0, 1]
        assert grid.q[3, 3] == Q2[1, 1]

    def test_uniform_cells(self):
        # the grid's bounds are the cumulative cell weights, pinned to end
        # at 1; they reproduce the uniform grid exactly
        for m in (1, 3, 7, 10, 100, 999, 1000):
            g = GridGraphon(np.full((m, m), 0.5))
            bounds = np.linspace(0.0, 1.0, m + 1)
            assert np.array_equal(g.bounds, bounds)
            assert np.array_equal(g.pi, np.diff(bounds))
