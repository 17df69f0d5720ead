"""Grid construction, Nystrom assembly, and integral quadrature tests."""

import math
import tracemalloc

import numpy as np
import pytest

from hankellab import (
    GridError,
    KernelEvaluationError,
    QuadratureError,
    make_grid,
    nystrom,
    nystrom_rect,
    quad_integral,
    sym_eigen,
)
from hankellab.kernels import kernel_A, kernel_L, power_family, weighted_hankel_kernel
from hankellab.quadrature import ROW_BLOCK


def full_square(K, grid):
    """The upper triangle of one evaluation on all N x N node pairs, mirrored."""
    t, w = grid.nodes, grid.weights
    vals = K(t[:, np.newaxis], t[np.newaxis, :]) * np.sqrt(np.outer(w, w))
    return np.triu(vals) + np.triu(vals, 1).T


class TestMakeGrid:
    def test_two_point_grid(self):
        g = make_grid(1.0, 2)
        assert g.nodes == pytest.approx([math.exp(-0.5), math.exp(0.5)], rel=1e-15)
        assert g.weights == pytest.approx([math.exp(-0.5), math.exp(0.5)], rel=1e-15)
        assert g.step == 1.0

    def test_reciprocal_symmetry(self):
        g = make_grid(5.0, 100)
        assert np.abs(g.nodes * g.nodes[::-1] - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("R,N", [(1.0, 2), (3.0, 6), (8.0, 400), (14.0, 2400)])
    def test_split_at_one(self, R, N):
        # the sides of t = 1 are the two halves of the ascending nodes
        g = make_grid(R, N)
        assert g.half == N // 2
        assert (g.nodes[: g.half] < 1.0).all()
        assert (g.nodes[g.half :] > 1.0).all()
        assert g.side("zero") == slice(0, g.half)
        assert g.side("infinity") == slice(g.half, N)

    def test_weight_sum_oracle(self):
        # sum of weights over (0, 1) approximates the length 1 - e^-R
        g = make_grid(8.0, 400)
        total = g.weights[g.nodes < 1.0].sum()
        exact = 1.0 - math.exp(-8.0)
        assert abs(total - exact) / exact <= 1e-3

    def test_nodes_sorted_and_immutable(self):
        g = make_grid(3.0, 60)
        assert (np.diff(g.nodes) > 0.0).all()
        with pytest.raises(ValueError):
            g.nodes[0] = 2.0

    @pytest.mark.parametrize("R,N", [(0.0, 10), (-1.0, 10), (2.0, 7), (2.0, 0), (2.0, 2.5)])
    def test_rejects_bad_parameters(self, R, N):
        with pytest.raises(GridError):
            make_grid(R, N)


class TestNystrom:
    def test_zero_kernel(self):
        g = make_grid(2.0, 10)
        M = nystrom(lambda s, t: 0.0 * s, g, provenance="zero")
        assert (M.entries == 0.0).all()

    def test_symmetry_exact(self):
        g = make_grid(4.0, 50)
        M = nystrom(kernel_A(0.3), g)
        assert (M.entries == M.entries.T).all()

    def test_carleman_top_eigenvalue_ladder(self):
        # the truncated operator's top eigenvalue climbs toward pi; frozen
        # regression values from this discretisation
        tops = []
        for R, N in [(6.0, 200), (8.0, 400), (10.0, 800)]:
            g = make_grid(R, N)
            M = nystrom(lambda s, t: 1.0 / (s + t), g, provenance="carleman")
            tops.append(sym_eigen(M)[-1])
        assert tops == pytest.approx([2.625409, 2.795888, 2.895012], abs=1e-4)
        assert all(b > a for a, b in zip(tops, tops[1:]))
        assert tops[-1] < math.pi

    def test_model_half_eigenvalue_range(self):
        g = make_grid(10.0, 800)
        M = nystrom(kernel_A(0.5), g)
        eigs = sym_eigen(M)
        assert eigs[0] >= -1e-10
        assert eigs[-1] <= 1.0 + 1e-3

    def test_kernel_failure_carries_point(self):
        g = make_grid(1.0, 4)

        def bad(s, t):
            return np.where((s > 1.0) & (t > 1.0), np.nan, 1.0 / (s + t))

        with pytest.raises(KernelEvaluationError) as exc_info:
            nystrom(bad, g)
        assert exc_info.value.s is not None and exc_info.value.s > 1.0

    def test_vectorised_failure_raises_at_once(self):
        # a kernel that only takes scalars fails on the node arrays; the
        # failure is reported with its cause, without N^2 scalar retries
        g = make_grid(1.0, 4)
        calls = []

        def scalar_only(s, t):
            calls.append((s, t))
            return 1.0 / (float(s) + float(t))

        with pytest.raises(KernelEvaluationError) as exc_info:
            nystrom(scalar_only, g)
        assert isinstance(exc_info.value.__cause__, TypeError)
        assert len(calls) == 1

    def test_matrices_compare_by_identity(self):
        g = make_grid(3.0, 40)
        M, again = nystrom(kernel_A(0.0), g), nystrom(kernel_A(0.0), g)
        assert M == M and hash(M) == hash(M)
        assert M != again and np.array_equal(M.entries, again.entries)
        assert len({M, again}) == 2

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_strips_match_full_square(self, alpha):
        # N is not a multiple of ROW_BLOCK, so the last strip is partial
        g = make_grid(9.0, 2 * ROW_BLOCK + 88)
        for K in (kernel_A(alpha), kernel_L(alpha)):
            assert np.array_equal(nystrom(K, g).entries, full_square(K, g))
        K = weighted_hankel_kernel(*power_family(alpha))
        np.testing.assert_array_max_ulp(nystrom(K, g).entries, full_square(K, g), maxulp=2)

    def test_memory_stays_at_strip_size(self):
        # the output plus a few ROW_BLOCK x N temporaries, never N x N ones
        g = make_grid(12.0, 2000)
        K = kernel_A(0.5)
        tracemalloc.start()
        try:
            M = nystrom(K, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        strip = ROW_BLOCK * g.N * 8
        assert peak <= M.entries.nbytes + 6 * strip

    def test_rectangular_assembly(self):
        g = make_grid(2.0, 10)
        wide = make_grid(4.0, 20)
        M = nystrom_rect(lambda s, t: 1.0 / (s + t), g, wide)
        assert M.entries.shape == (10, 20)
        assert M.col_grid is wide

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_rect_strips_match_one_piece(self, alpha):
        # N = 344 is not a multiple of ROW_BLOCK, so the last strip is partial
        g, wide = make_grid(6.0, 344), make_grid(12.0, 688)
        K = kernel_L(alpha)
        s, t = g.nodes[:, np.newaxis], wide.nodes[np.newaxis, :]
        ref = K(s, t) * np.sqrt(np.outer(g.weights, wide.weights))
        assert np.array_equal(nystrom_rect(K, g, wide).entries, ref)

    def test_rect_memory_stays_at_strip_size(self):
        # the output plus a few ROW_BLOCK x M temporaries, never N x M ones
        g, wide = make_grid(12.0, 2000), make_grid(24.0, 4000)
        K = kernel_L(0.5)
        tracemalloc.start()
        try:
            M = nystrom_rect(K, g, wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        strip = ROW_BLOCK * wide.N * 8
        assert peak <= M.entries.nbytes + 6 * strip

    def test_refinement_consistency(self):
        # Cauchy proxy: doubling N at fixed R changes the top eigenvalues of
        # a smooth-kernel operator by less than it changed at the previous step
        K = lambda s, t: np.exp(-(s + t))
        tops = []
        for N in (50, 100, 200):
            g = make_grid(4.0, N)
            tops.append(sym_eigen(nystrom(K, g))[-1])
        assert abs(tops[2] - tops[1]) < abs(tops[1] - tops[0])
        assert abs(tops[2] - tops[1]) < 1e-4

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_persymmetry_transfer(self, alpha):
        # K(1/s, 1/t) = s t K(s, t) holds for the model kernel, so the matrix
        # is persymmetric up to rounding of the node mirror
        g = make_grid(6.0, 100)
        K = kernel_A(alpha)
        s = g.nodes[:10]
        lhs = K(1.0 / s[:, None], 1.0 / s[None, :])
        rhs = s[:, None] * s[None, :] * K(s[:, None], s[None, :])
        assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(rhs).max()
        M = nystrom(K, g).entries
        assert np.abs(M - M[::-1, ::-1]).max() <= 1e-13 * np.abs(M).max()


class TestQuadIntegral:
    def test_inverse_t(self):
        g = make_grid(3.0, 300)
        assert quad_integral(lambda t: 1.0 / t, g) == pytest.approx(6.0, abs=1e-6)

    def test_exponential(self):
        # the op approximates the integral over the truncation; the window
        # [e^-10, e^10] misses 4.5e-5 of the mass of e^-t
        g = make_grid(10.0, 1000)
        val = quad_integral(np.exp if False else (lambda t: np.exp(-t)), g)
        truncated_exact = math.exp(-math.exp(-10.0)) - math.exp(-math.exp(10.0))
        assert val == pytest.approx(truncated_exact, abs=1e-8)
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_zero_function(self):
        g = make_grid(2.0, 20)
        assert quad_integral(lambda t: 0.0 * t, g) == 0.0

    def test_scalar_function_fallback(self):
        # an integrand that takes only scalars is an error, not a slow path
        g = make_grid(2.0, 20)
        with pytest.raises(QuadratureError) as info:
            quad_integral(lambda t: float(t) ** -1, g)
        assert isinstance(info.value.__cause__, TypeError)
