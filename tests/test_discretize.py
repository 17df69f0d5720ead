"""Operator assembly tests: exact identities (split, block similarity,
pushforward), composition residual ladders, and compactness diagnostics."""

import math

import numpy as np
import pytest

from hankellab import GridError, make_grid, nuclear_norm, op_norm, singular_values, sym_eigen
from hankellab.discretize import (
    assemble_A,
    assemble_L,
    assemble_L_rect,
    assemble_model_split,
    assemble_wHa,
    change_of_variables_diagonal,
    composed_block,
    log_pushforward_hankel,
    operator_square,
    widened_grid,
)
from hankellab.kernels import rational_test_family
from hankellab.quadrature import ROW_BLOCK
from hankellab.specfun import phi_split, psi_minus, psi_plus

LADDER = [(6.0, 200), (8.0, 400), (10.0, 800)]


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

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_blocks_of_one_factor(self, alpha):
        # 1_0 + 1_inf = 1 on the widened grid; the block products and the
        # square sum their terms in different orders, so they agree to a few
        # roundings of the largest entry
        Lr = assemble_L_rect(alpha, make_grid(8.0, 400))
        b0, bi = composed_block(Lr, "zero"), composed_block(Lr, "infinity")
        for block in (b0, bi):
            assert np.array_equal(block.entries, block.entries.T)
        sq = operator_square(Lr).entries
        err = np.abs(b0.entries + bi.entries - sq).max()
        assert err <= 10 * np.finfo(float).eps * np.abs(sq).max()

    def test_widened_grid_step_matches(self):
        grid = make_grid(6.0, 200)
        wide = widened_grid(grid)
        assert wide.step == grid.step
        assert wide.R == 2 * grid.R


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
        # ROW_BLOCK, against the pair built strip by strip
        grid = make_grid(9.0, 2 * ROW_BLOCK + 88)
        t, w = grid.nodes, grid.weights
        scale = np.sqrt(np.outer(w, w))
        st = t[:, np.newaxis] ** alpha * t[np.newaxis, :] ** alpha
        for H, phi in zip(
            assemble_model_split(alpha, grid), phi_split(alpha, t[:, np.newaxis] + t[np.newaxis, :])
        ):
            vals = st * phi * scale
            ref = np.triu(vals) + np.triu(vals, 1).T
            np.testing.assert_array_max_ulp(H.entries, ref, maxulp=2)

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
