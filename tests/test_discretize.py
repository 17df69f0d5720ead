"""Operator assembly tests: exact identities (split, block similarity,
pushforward), composition residual ladders, and compactness diagnostics."""

import math

import numpy as np
import pytest

import hankellab.discretize
from hankellab import (
    GridError,
    KernelEvaluationError,
    make_grid,
    nuclear_norm,
    op_norm,
    singular_values,
    sym_eigen,
)
from hankellab.discretize import (
    _gram_rows,
    _hankel_gram,
    _hankel_values,
    assemble_A,
    assemble_L,
    assemble_L_rect,
    assemble_model_split,
    assemble_wHa,
    change_of_variables_diagonal,
    composed_block,
    log_pushforward_hankel,
    operator_square,
    phi0_and_split_defect,
    subtract_composed_block,
    widened_grid,
)
from hankellab.kernels import kernel_L, rational_test_family
from hankellab.quadrature import COL_BLOCK, ROW_BLOCK
from hankellab.specfun import phi_split, psi_minus, psi_plus

LADDER = [(6.0, 200), (8.0, 400), (10.0, 800)]
EPS = np.finfo(float).eps


def gram_bound(n, m):
    """The first-order bound on |G - H H^T| / max|G| for the Gram matrix G of
    an n x m Hankel matrix H that the displacement recurrence gives
    (``discretize._gram_rows``): (m / 2 + 2 n) eps."""
    return (m / 2 + 2 * n) * EPS


def gram_by_rows(h, n):
    """Reference: the recurrence written out on one n x n array, row i + 1
    formed from row i in place and column 0 copied from row 0."""
    m = len(h) - n + 1
    G = np.empty((n, n))
    G[0] = np.correlate(h, h[:m], "valid")
    G[1:, 0] = G[0, 1:]
    for i in range(n - 1):
        G[i + 1, 1:] = G[i, :-1] - h[: n - 1] * h[i]
        G[i + 1, 1:] += h[m : m + n - 1] * h[i + m]
    return G


class TestAssembly:
    def test_model_equals_weighted_power_family(self):
        grid = make_grid(6.0, 100)
        A = assemble_A(0.0, grid)
        spec_a, spec_w = rational_test_family(0.0, 1.0, 1.0, 1.0, 1.0)
        W = assemble_wHa(spec_a, spec_w, grid)
        assert np.abs(A.entries - W.entries).max() <= 1e-14 * np.abs(A.entries).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_model_persymmetric(self, alpha):
        grid = make_grid(8.0, 200)
        A = assemble_A(alpha, grid).entries
        assert np.abs(A - A[::-1, ::-1]).max() <= 1e-13 * np.abs(A).max()

    def test_two_point_model_matrix(self):
        A = assemble_A(0.3, make_grid(1.0, 2)).entries
        assert A.shape == (2, 2)
        assert A[0, 0] == pytest.approx(A[1, 1], rel=1e-14)


class TestProjection:
    def test_block_dimensions(self):
        grid = make_grid(6.0, 100)
        A = assemble_A(0.0, grid).entries
        m0, mi = grid.side("zero"), grid.side("infinity")
        assert A[m0, m0].shape == (50, 50)
        assert A[m0, mi].shape == (50, 50)
        assert set(range(100)[m0]) | set(range(100)[mi]) == set(range(100))
        assert (grid.nodes[m0] < 1.0).all() and (grid.nodes[mi] > 1.0).all()

    def test_bad_side_rejected(self):
        with pytest.raises(GridError):
            make_grid(2.0, 10).side("middle")

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_block_similarity(self, alpha):
        # inversion symmetry: the two diagonal blocks are exactly isospectral
        grid = make_grid(8.0, 400)
        A = assemble_A(alpha, grid).entries
        m0, mi = grid.side("zero"), grid.side("infinity")
        e0 = sym_eigen(A[m0, m0])
        ei = sym_eigen(A[mi, mi])
        norm = max(abs(e0[0]), abs(e0[-1]))
        assert np.abs(e0 - ei).max() <= 1e-11 * norm


class TestInversionConjugate:
    def test_involution(self):
        grid = make_grid(4.0, 60)
        L = assemble_L(0.25, grid)
        twice = L.entries[::-1, ::-1][::-1, ::-1]
        assert (twice == L.entries).all()

    def test_model_fixed_point(self):
        grid = make_grid(6.0, 150)
        A = assemble_A(0.5, grid)
        flipped = A.entries[::-1, ::-1]
        assert np.abs(A.entries - flipped).max() <= 1e-13 * np.abs(A.entries).max()

    def test_factor_not_fixed(self):
        # the factor kernel is not homogeneous, so inversion genuinely moves it
        grid = make_grid(6.0, 150)
        L = assemble_L(0.0, grid)
        flipped = L.entries[::-1, ::-1]
        defect = np.abs(L.entries - flipped).max()
        assert defect > 0.1 * np.abs(L.entries).max()


class TestOperatorSquare:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_wide_composition_residual_ladder(self, alpha):
        resids = []
        for R, N in LADDER:
            grid = make_grid(R, N)
            A = assemble_A(alpha, grid)
            sq = operator_square(assemble_L_rect(alpha, grid))
            resids.append(op_norm(sq.entries - A.entries) / op_norm(A))
        assert all(b < a for a, b in zip(resids, resids[1:]))
        assert resids[1] <= 1e-2

    def test_window_leakage_monotone(self):
        # the same-grid square converges to the window-restricted composition,
        # not to A; its defect still shrinks monotonically along the ladder
        leaks = []
        for R, N in LADDER:
            grid = make_grid(R, N)
            A = assemble_A(0.0, grid)
            L = assemble_L(0.0, grid)
            leaks.append(op_norm(L.entries @ L.entries - A.entries) / op_norm(A))
        assert all(b < a for a, b in zip(leaks, leaks[1:]))
        assert leaks[-1] > 0.1  # the leakage is an O(1) truncation effect

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("R,N", [(6.0, 200), (10.0, 800), (12.0, 1600), (16.0, 3200)])
    def test_recurrence_matches_the_product_of_the_gathered_factor(self, R, N, alpha):
        # oracle: a GEMM (syrk) of the factor gathered here, which is within
        # (m / 2) eps max|G| of the exact product, so the two differ by at
        # most gram_bound(n, m) + (m / 2) eps = (m + 2 n) eps relative; 46 eps
        # measured at most
        grid = make_grid(R, N)
        Lr = assemble_L_rect(alpha, grid)
        cases = [(operator_square(Lr), slice(None), slice(None))]
        for inner in ("zero", "infinity"):
            cols = Lr.col_grid.side(inner)
            cases.append((composed_block(Lr, inner), slice(None), cols))
            for outer in ("zero", "infinity"):
                cases.append((composed_block(Lr, inner, outer), grid.side(outer), cols))
        for result, rows, cols in cases:
            G = result.entries
            H = np.ascontiguousarray(Lr.entries[rows, cols])
            n, m = H.shape
            assert G.shape == (n, n)
            assert np.array_equal(G, G.T)
            err = np.abs(G - H @ H.T).max()
            del H
            assert err <= (m + 2 * n) * EPS * np.abs(G).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_blocks_of_one_factor(self, alpha):
        # 1_0 + 1_inf = 1 on the widened grid.  The two blocks (n = m = N)
        # and the square (m = 2N) each lie within gram_bound of their exact
        # products, and the blocks' largest entries are at most the square's
        # (all are Gram matrices, whose diagonals add up), so with the sum's
        # own rounding they agree to within (8N + 1) eps max|square|
        N = 400
        Lr = assemble_L_rect(alpha, make_grid(8.0, N))
        b0, bi = composed_block(Lr, "zero"), composed_block(Lr, "infinity")
        sq = operator_square(Lr).entries
        err = np.abs(b0.entries + bi.entries - sq).max()
        bound = 2 * gram_bound(N, N) + gram_bound(N, 2 * N) + EPS
        assert err <= bound * np.abs(sq).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.25, 2.0])
    @pytest.mark.parametrize(
        "R,N", [(6.0, 200), (10.0, 800), (4.0, 100), (8.0, 400), (8.0, 600), (14.0, 2400)]
    )
    def test_quarter_block_is_slice_of_whole(self, R, N, alpha):
        # the two-block decomposition composes each diagonal quarter as its
        # own Gram matrix; like the whole block it is exactly symmetric.  The
        # zero-side quarter is the whole block's chain for its first N/2
        # rows, so it has their bits; the infinity-side quarter starts its
        # chain at row N/2, and both sides lie within gram_bound of the
        # exact quarter
        grid = make_grid(R, N)
        Lr = assemble_L_rect(alpha, grid)
        for inner in ("zero", "infinity"):
            whole = composed_block(Lr, inner).entries
            assert whole.shape == (N, N)
            assert np.array_equal(whole, whole.T)
            for outer in ("zero", "infinity"):
                quarter = composed_block(Lr, inner, outer).entries
                assert quarter.shape == (N // 2, N // 2)
                assert np.array_equal(quarter, quarter.T)
                half = grid.side(outer)
                if outer == "zero":
                    assert np.array_equal(quarter, whole[half, half])
                err = np.abs(quarter - whole[half, half]).max()
                bound = gram_bound(N // 2, N) + gram_bound(N, N)
                assert err <= bound * np.abs(whole).max()

    def test_gathered_block_builds_no_factor(self, traced_peak):
        # the block and a few vectors of the factor's 3N - 1 values: no
        # gather of the side's columns and no N x 2N factor
        grid = make_grid(12.0, 1600)
        block, peak = traced_peak(lambda: composed_block(assemble_L_rect(0.5, grid), "zero"))
        assert peak <= block.entries.nbytes + 8 * (3 * grid.N) * 8

    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    @pytest.mark.parametrize("R,N", [(6.0, 200), (10.0, 800), (12.0, 1600), (14.0, 2400)])
    def test_rows_in_two_buffers_have_the_gram_bits(self, R, N, alpha):
        # the recurrence's rows formed in two alternating rows, as the
        # in-place subtraction takes them, and stored whole, against the
        # recurrence written out here (same operations, so the same bits);
        # the side's block (n = m = N) and the widened square (m = 2N)
        Lr = assemble_L_rect(alpha, make_grid(R, N))
        for h in (_hankel_values(Lr.entries[:, Lr.col_grid.side("infinity")]), _hankel_values(Lr.entries)):
            ref = gram_by_rows(h, N)
            rows = np.array([row.copy() for row in _gram_rows(h, N, np.empty((2, N)))])
            assert np.array_equal(rows, ref) and np.array_equal(_hankel_gram(h, N), ref)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("R,N", [(6.0, 200), (10.0, 800), (14.0, 2400)])
    def test_subtracted_block_has_the_bits_of_the_difference(self, R, N, alpha):
        # in place from an exactly symmetric H(phi0): the bits of the
        # whole-array difference, so exactly symmetric too
        grid = make_grid(R, N)
        Lr = assemble_L_rect(alpha, grid)
        H0, _ = phi0_and_split_defect(alpha, grid, assemble_A(alpha, grid).entries)
        expected = H0 - composed_block(Lr, "infinity").entries
        subtract_composed_block(H0, Lr, "infinity")
        assert np.array_equal(H0, expected) and np.array_equal(H0, H0.T)

    def test_subtracted_block_builds_no_block(self, traced_peak):
        # the side's 2N - 1 values and a few rows: O(N) doubles (6.1 N
        # measured), where a block takes N^2
        grid = make_grid(14.0, 2400)
        Lr = assemble_L_rect(0.5, grid)
        M = np.zeros((grid.N, grid.N))
        _, peak = traced_peak(lambda: subtract_composed_block(M, Lr, "infinity"))
        assert peak <= 8 * grid.N * 8

    def test_widened_grid_step_matches(self):
        grid = make_grid(6.0, 200)
        wide = widened_grid(grid)
        assert wide.step == grid.step
        assert wide.R == 2 * grid.R


class TestWidenedFactor:
    """The widened factor is gathered from its 3N - 1 antidiagonal values."""

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 2.0])
    def test_gather_matches_entrywise_evaluation(self, alpha):
        # oracle: the kernel on all N x 2N node pairs.  N = 344 is not a
        # multiple of ROW_BLOCK.  Each gathered entry is the kernel at another
        # node pair with the same log-node sum; the log nodes (|x| <= R,
        # |y| <= 2R) carry rounding of about eps |x|, so the two sums differ
        # by up to about 3 R eps, which the kernel's log-derivative carries
        # into the value (measured 5.4, 6.3, 8.5 and 12.2 eps * max here)
        grid = make_grid(6.0, 344)
        assert grid.N % ROW_BLOCK
        wide = widened_grid(grid)
        s, t = grid.nodes[:, np.newaxis], wide.nodes[np.newaxis, :]
        ref = kernel_L(alpha)(s, t) * np.sqrt(np.outer(grid.weights, wide.weights))
        Lr = assemble_L_rect(alpha, grid)
        # a read-only view: row i + 1 starts one value after row i
        assert Lr.entries.shape == (344, 688) and Lr.entries.strides == (8, 8)
        assert not Lr.entries.flags.writeable
        assert (Lr.col_grid.R, Lr.col_grid.N) == (wide.R, wide.N)
        err = np.abs(Lr.entries - ref).max()
        assert err <= 3 * grid.R * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_constant_along_antidiagonals(self, alpha):
        L = assemble_L_rect(alpha, make_grid(6.0, 344)).entries
        assert np.array_equal(L[:-1, 1:], L[1:, :-1])

    def test_kernel_overflow_reported_at_its_node_pair(self):
        # s^60 t^60 overflows in the first row, at the first node and the
        # same column node as an entrywise evaluation reports
        with pytest.raises(KernelEvaluationError) as info:
            assemble_L_rect(60.0, make_grid(6.0, 200))
        assert (info.value.s, info.value.t) == (0.0025542414189929983, 140084.3471757332)


class TestModelHankel:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_split_reassembles_model(self, alpha):
        grid = make_grid(8.0, 200)
        A = assemble_A(alpha, grid)
        H0, Hi = assemble_model_split(alpha, grid)
        err = np.abs(H0.entries + Hi.entries - A.entries).max()
        assert err <= 1e-12 * np.abs(A.entries).max()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_split_strips_match_full_square(self, alpha):
        # one phi_split call on all N x N node sums, N not a multiple of
        # ROW_BLOCK, against the pair built tile by tile; at N = 1300 the
        # first strips span three tiles, the last one partial
        assert 1300 % COL_BLOCK and 1300 > 2 * COL_BLOCK
        for grid in (make_grid(9.0, 2 * ROW_BLOCK + 88), make_grid(11.0, 1300)):
            t, w = grid.nodes, grid.weights
            scale = np.sqrt(np.outer(w, w))
            st = t[:, np.newaxis] ** alpha * t[np.newaxis, :] ** alpha
            sums = t[:, np.newaxis] + t[np.newaxis, :]
            for H, phi in zip(assemble_model_split(alpha, grid), phi_split(alpha, sums)):
                vals = st * phi * scale
                ref = np.triu(vals) + np.triu(vals, 1).T
                np.testing.assert_array_max_ulp(H.entries, ref, maxulp=2)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_one_walk_gives_phi0_and_the_split_defect(self, alpha):
        # against the pair: H(phi0) and the whole-matrix defect bit for bit
        for grid in (make_grid(9.0, 2 * ROW_BLOCK + 88), make_grid(11.0, 1300)):
            A = assemble_A(alpha, grid).entries
            H0, Hi = (H.entries for H in assemble_model_split(alpha, grid))
            got, defect = phi0_and_split_defect(alpha, grid, A)
            assert np.array_equal(got, H0)
            assert defect == np.abs(H0 + Hi - A).max()

    def test_split_defect_stores_no_phi_inf(self, traced_peak):
        # H(phi0) plus the temporaries of one tile's incomplete-Gamma
        # evaluation and the walk, none of the previous tile's: 6.75
        # ROW_BLOCK x COL_BLOCK tiles measured, 5.5 of them phi_split's own
        # on the worst tile (its routes run on a quarter of a tile at a
        # time), held here to 8 (1.25 tiles of margin): no second N x N
        # matrix
        grid = make_grid(14.0, 2400)
        A = assemble_A(0.5, grid).entries
        (H0, _), peak = traced_peak(lambda: phi0_and_split_defect(0.5, grid, A))
        tile = ROW_BLOCK * COL_BLOCK * 8
        assert peak <= H0.nbytes + 8 * tile < 2 * H0.nbytes

    def test_split_walk_rejects_values_made_non_finite_by_the_scaling(self, monkeypatch):
        # phi0 = phi_inf = 1e308 is finite on every node pair, and at
        # alpha = 0 so is s^a t^a phi; sqrt(w_i w_j) > 1 at the far corner
        # makes it overflow, which the split walk reports at its node pair
        grid = make_grid(6.0, 200)
        monkeypatch.setattr(
            hankellab.discretize, "phi_split", lambda a, t: (np.full(t.shape, 1e308), np.full(t.shape, 1e308))
        )
        with pytest.raises(KernelEvaluationError, match="not finite at") as info:
            phi0_and_split_defect(0.0, grid, np.zeros((grid.N, grid.N)))
        s, t = info.value.s, info.value.t
        w_s, w_t = (float(grid.weights[grid.nodes == x][0]) for x in (s, t))
        assert math.sqrt(w_s * w_t) > np.finfo(float).max / 1e308

    def test_phi0_matrix_positive_entries(self):
        grid = make_grid(6.0, 100)
        H0, _ = assemble_model_split(0.5, grid)
        inside = H0.entries[np.abs(H0.entries) > 0.0]
        assert (inside > 0.0).all()

    def test_composition_identity_ladder(self):
        resids = []
        for R, N in LADDER:
            grid = make_grid(R, N)
            H0, _ = assemble_model_split(0.0, grid)
            comp = composed_block(assemble_L_rect(0.0, grid), "infinity")
            resids.append(op_norm(H0.entries - comp.entries))
        assert all(b < a for a, b in zip(resids, resids[1:]))
        assert resids[-1] <= 1e-4


class TestLogPushforward:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("side", ["zero", "infinity"])
    def test_unitary_equivalence(self, alpha, side):
        grid = make_grid(8.0, 400)
        L = assemble_L(alpha, grid)
        half = grid.side(side)
        block = L.entries[half, half]
        if side == "zero":
            block = block[::-1, ::-1]
        d = change_of_variables_diagonal(grid, side)
        pushed = d[:, np.newaxis] * block * d[np.newaxis, :]
        H = log_pushforward_hankel(side, alpha, grid).entries
        assert np.abs(pushed - H).max() <= 1e-14
        e1 = sym_eigen(0.5 * (pushed + pushed.T))
        e2 = sym_eigen(H)
        assert np.abs(e1 - e2).max() <= 1e-8

    @pytest.mark.parametrize("side", ["zero", "infinity"])
    def test_hankel_from_antidiagonal_values(self, side):
        # exactly Hankel and symmetric, and within a few eps of the kernel
        # evaluated on every pair x_i + x_j of the pushforward grid (the
        # rounding of x_i + x_j differs along an antidiagonal)
        grid = make_grid(8.0, 400)
        H = log_pushforward_hankel(side, 0.5, grid).entries
        assert np.array_equal(H[1:, :-1], H[:-1, 1:])
        assert np.array_equal(H, H.T)
        x = grid.log_nodes[grid.half :]
        psi = psi_plus if side == "infinity" else psi_minus
        c = math.exp(-0.5 * math.lgamma(2.0))
        ref = grid.step * c * psi(0.5, x[:, np.newaxis] + x[np.newaxis, :])
        assert np.abs(H - ref).max() <= 8 * np.finfo(float).eps * np.abs(ref).max()

    def test_both_sides_fast_singular_decay(self):
        grid = make_grid(8.0, 400)
        for side in ("zero", "infinity"):
            sv = singular_values(log_pushforward_hankel(side, 0.0, grid))
            assert sv[9] / sv[0] < 1e-6

    def test_kernel_at_origin_proportional_to_inv_e(self):
        grid = make_grid(8.0, 400)
        H = log_pushforward_hankel("infinity", 0.0, grid).entries
        # smallest x+y on the grid is one step; entry = h * psi(step)
        x0 = grid.log_nodes[grid.half]
        expected = grid.step * math.exp(2 * x0 * 0.5 - math.exp(2 * x0))
        assert H[0, 0] == pytest.approx(expected, rel=1e-13)
        assert abs(H[0, 0] / grid.step - math.exp(-1.0)) < 0.2


class TestCompactness:
    def test_diagonal_block_schatten_decay(self):
        grid = make_grid(8.0, 400)
        L = assemble_L(0.0, grid)
        m0 = grid.side("zero")
        sv = singular_values(L.entries[m0, m0])
        assert sv[9] / sv[0] < 1e-6

    def test_cross_block_nuclear_bounded(self):
        nucs = []
        for R, N in LADDER:
            grid = make_grid(R, N)
            A = assemble_A(0.0, grid)
            m0, mi = grid.side("zero"), grid.side("infinity")
            nucs.append(nuclear_norm(A.entries[m0, mi]))
        assert all(b <= 1.10 * a for a, b in zip(nucs, nucs[1:]))
