"""Grid construction, Nystrom assembly, and integral quadrature tests."""

import math

import numpy as np
import pytest

from hankellab import (
    GridError,
    KernelEvaluationError,
    QuadratureError,
    make_grid,
    nystrom,
    quad_integral,
    sym_eigen,
)
from hankellab.discretize import (
    assemble_A,
    assemble_L,
    assemble_L_rect,
    assemble_model_split,
    assemble_wHa,
)
from hankellab.kernels import kernel_A, kernel_L, rational_test_family, weighted_hankel_kernel
from hankellab.quadrature import (
    COL_BLOCK,
    ROW_BLOCK,
    OperatorMatrix,
    UpperStrips,
    check_step,
    nystrom_strips,
)


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

    @pytest.mark.parametrize(
        "R,N", [(0.0, 10), (-1.0, 10), (math.inf, 10), (math.nan, 10), (2.0, 7), (2.0, 0), (2.0, 2.5)]
    )
    def test_rejects_bad_parameters(self, R, N):
        with pytest.raises(GridError):
            make_grid(R, N)

    def test_step_as_float_and_int(self):
        R, N = check_step(6, 200.0)
        assert (R, N) == (6.0, 200) and type(R) is float and type(N) is int


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
        exc = exc_info.value
        assert exc.s is not None and exc.s > 1.0
        # the point reads the same under every numpy version
        assert repr(exc.s) in str(exc) and repr(exc.t) in str(exc)
        assert "np.float64" not in str(exc)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_matrix_rejects_non_finite_entries(self, bad):
        g = make_grid(1.0, 4)
        entries = np.ones((4, 4))
        entries[2, 1] = bad
        with pytest.raises(KernelEvaluationError, match="non-finite entries"):
            OperatorMatrix(grid=g, entries=entries, provenance="m")
        assert OperatorMatrix(grid=g, entries=np.empty((0, 4)), provenance="empty").entries.size == 0

    def test_constructor_reads_max_abs_entry(self):
        entries = np.array([[1.0, -3.0], [-3.0, 2.0]])
        M = OperatorMatrix(grid=make_grid(1.0, 2), entries=entries, provenance="m")
        assert M.amax == 3.0

    @pytest.mark.parametrize("R,N", [(10.0, 800), (14.0, 2400)])
    def test_walk_reads_max_abs_entry_exactly(self, R, N):
        # the verify suite hands these to the solvers with this amax and no
        # scan; the family (1, -1, 1, 1) has negative entries
        g = make_grid(R, N)
        for M in (
            assemble_A(0.5, g),
            assemble_L(0.5, g),
            assemble_wHa(*rational_test_family(0.5, 2.0, 1.0, 1.0, 2.0), g),
            assemble_wHa(*rational_test_family(0.5, 1.0, -1.0, 1.0, 1.0), g),
        ):
            assert M.amax == max(M.entries.max(), -M.entries.min())
            assert not M.entries.flags.writeable

    def test_walk_matrices_skip_the_constructor_scan(self, monkeypatch):
        # _kernel_tiles has checked every value of the walk: no second
        # finiteness scan; the public constructor still scans its input
        calls = []
        post_init = OperatorMatrix.__post_init__
        monkeypatch.setattr(OperatorMatrix, "__post_init__", lambda M: calls.append(M) or post_init(M))
        g = make_grid(6.0, 200)
        nystrom(kernel_A(0.5), g)
        assemble_model_split(0.5, g)
        assert calls == []
        entries = np.ones((4, 4))
        entries[1, 2] = math.nan
        with pytest.raises(KernelEvaluationError, match="non-finite entries"):
            OperatorMatrix(grid=make_grid(1.0, 4), entries=entries, provenance="m")
        assert len(calls) == 1

    def test_matrices_compare_by_identity(self):
        g = make_grid(3.0, 40)
        M, again = nystrom(kernel_A(0.0), g), nystrom(kernel_A(0.0), g)
        assert M == M and hash(M) == hash(M)
        assert M != again and np.array_equal(M.entries, again.entries)
        assert len({M, again}) == 2

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_strips_match_full_square(self, alpha):
        # N is not a multiple of ROW_BLOCK, so the last strip is partial; at
        # N = 1300 the first strips span three tiles, the last one partial
        assert 1300 % COL_BLOCK and 1300 > 2 * COL_BLOCK
        for g in (make_grid(9.0, 2 * ROW_BLOCK + 88), make_grid(11.0, 1300)):
            for K in (kernel_A(alpha), kernel_L(alpha)):
                assert np.array_equal(nystrom(K, g).entries, full_square(K, g))
            K = weighted_hankel_kernel(*rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0))
            np.testing.assert_array_max_ulp(nystrom(K, g).entries, full_square(K, g), maxulp=2)

    def test_memory_stays_at_strip_size(self, traced_peak):
        # the output plus a few ROW_BLOCK x COL_BLOCK temporaries (6.3
        # measured), never ROW_BLOCK x N or N x N ones
        g = make_grid(12.0, 2000)
        K = kernel_A(0.5)
        M, peak = traced_peak(lambda: nystrom(K, g))
        tile = ROW_BLOCK * COL_BLOCK * 8
        assert peak <= M.entries.nbytes + 8 * tile < M.entries.nbytes + 6 * ROW_BLOCK * g.N * 8

    @pytest.mark.parametrize("N", [2 * ROW_BLOCK + 88, 1300])
    def test_packed_strips_are_the_upper_strips(self, N):
        # the packed sink stores the tiles of the full one: the same bits,
        # the whole matrix back from dense(), and max|entry| read on the way
        g = make_grid(11.0, N)
        K = weighted_hankel_kernel(*rational_test_family(0.5, 2.0, 1.0, 1.0, 2.0))
        full, packed = nystrom(K, g).entries, nystrom_strips(K, g)
        assert packed.shape == (N, N) and len(packed.strips) == -(-N // ROW_BLOCK)
        for b, strip in enumerate(packed.strips):
            r0 = b * ROW_BLOCK
            assert strip.flags.c_contiguous
            assert np.array_equal(strip, full[r0 : r0 + ROW_BLOCK, r0:])
        assert packed.amax == np.abs(full).max()
        assert np.array_equal(packed.dense(), full)
        # 0.52 N^2 doubles at N = 3200: half the matrix and half of each
        # diagonal block
        assert sum(s.size for s in packed.strips) == N * (N + 1) // 2 + sum(
            r * (r - 1) // 2 for r in (s.shape[0] for s in packed.strips)
        )

    def test_strip_product_is_the_symmetric_product(self):
        # on a full array's upper-strip views nothing left of the diagonal
        # blocks is read: the product is that of A's strips mirrored onto
        # the lower triangle, the diagonal blocks A's own
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2 * ROW_BLOCK + 40, 2 * ROW_BLOCK + 40))
        U = np.triu(A) + np.triu(A, 1).T
        for r0 in range(0, A.shape[0], ROW_BLOCK):
            block = slice(r0, r0 + ROW_BLOCK)
            U[block, block] = A[block, block]
        X = rng.standard_normal((A.shape[0], 5))
        P = UpperStrips.of(A, float(np.abs(U).max()))
        assert all(np.shares_memory(s, A) for s in P.strips)
        np.testing.assert_allclose(P @ X, U @ X, rtol=0, atol=1e-12 * np.abs(U @ X).max())
        assert np.array_equal(P.dense(), U)

    def test_packed_rejects_entries_made_non_finite_by_the_scaling(self):
        # the kernel is finite on every node pair; sqrt(w_i w_j) > 1 at the
        # far corner makes it overflow.  Both sinks raise at a node pair
        # where the scaled value overflows, with no RuntimeWarning first
        g = make_grid(6.0, 200)
        K = lambda s, t: np.full(np.broadcast(s, t).shape, 1e308)
        assert g.weights.max() > 1.0
        for assemble in (nystrom, nystrom_strips):
            with pytest.raises(KernelEvaluationError, match="not finite at") as info:
                assemble(K, g)
            s, t = info.value.s, info.value.t
            assert repr(s) in str(info.value) and repr(t) in str(info.value)
            w_s, w_t = (float(g.weights[g.nodes == x][0]) for x in (s, t))
            assert math.sqrt(w_s * w_t) > np.finfo(float).max / 1e308

    def test_packed_memory_stays_at_half_the_matrix(self, traced_peak):
        # the strips (0.53 N^2 doubles at N = 2000) plus a few tiles: no
        # N x N array and no mirror store
        g = make_grid(12.0, 2000)
        K = kernel_A(0.5)
        P, peak = traced_peak(lambda: nystrom_strips(K, g))
        stored = sum(s.nbytes for s in P.strips)
        assert stored < 0.54 * 8 * g.N**2
        assert peak <= stored + 8 * ROW_BLOCK * COL_BLOCK * 8

    # the rectangular Nystrom matrix of the suite is the widened factor,
    # gathered from its antidiagonals (tests/test_discretize.py checks the
    # gather against an entrywise evaluation)
    def test_rectangular_assembly(self):
        g = make_grid(2.0, 10)
        M = assemble_L_rect(0.0, g)
        assert M.entries.shape == (10, 20)
        assert (M.col_grid.R, M.col_grid.N) == (4.0, 20)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_rect_stores_no_subnormals(self, alpha):
        # the far corners of the widened grid underflow: one evaluation holds
        # subnormal entries, the stored matrix holds 0 in their place
        g, wide = make_grid(10.0, 800), make_grid(20.0, 1600)
        K = kernel_L(alpha)
        tiny = np.finfo(float).tiny
        raw = K(g.nodes[:, np.newaxis], wide.nodes[np.newaxis, :]) * np.sqrt(np.outer(g.weights, wide.weights))
        assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < tiny)) >= 800
        M = assemble_L_rect(alpha, g).entries
        assert not ((M != 0.0) & (np.abs(M) < tiny)).any()
        assert np.abs(raw[(M == 0.0) & (raw != 0.0)]).max() < tiny
        # the gather's rounding, as in tests/test_discretize.py
        assert np.abs(M - raw).max() <= 3 * g.R * np.finfo(float).eps * np.abs(raw).max()

    def test_rect_memory_stays_at_strip_size(self, traced_peak):
        # O(N): the kernel runs on 3N - 1 node pairs, and the matrix is a view
        # of their values, so no array has N rows
        g = make_grid(12.0, 2000)
        M, peak = traced_peak(lambda: assemble_L_rect(0.5, g))
        assert M.entries.shape == (g.N, 2 * g.N)
        assert peak <= 8 * (3 * g.N) * 8

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
