"""Eigenvalues, singular values and norms, checked against independently
computed oracles (hand-rolled LU determinant, analytic singular values,
scipy's gesvd, numpy's eigvalsh for the Lanczos operator norm, the
Hilbert-Schmidt integral identity)."""

import math

import numpy as np
import pytest
import scipy.linalg

from hankellab import (
    EigenSolverError,
    frobenius_norm,
    make_grid,
    nuclear_norm,
    op_norm,
    singular_values,
    sym_eigen,
)
from hankellab.discretize import (
    assemble_A,
    assemble_L,
    assemble_L_rect,
    assemble_model_split,
    assemble_uL,
    assemble_wHa,
    composed_block,
    operator_square,
)
from hankellab.kernels import power_family, rational_test_family
from hankellab.linalg import CENTRO_TOL
from hankellab.quadrature import ROW_BLOCK


def lu_determinant(M):
    """Partial-pivoting LU determinant; independent of any eigensolver."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    det = 1.0
    for k in range(n):
        p = k + np.argmax(np.abs(A[k:, k]))
        if p != k:
            A[[k, p]] = A[[p, k]]
            det = -det
        pivot = A[k, k]
        if pivot == 0.0:
            return 0.0
        det *= pivot
        if k + 1 < n:
            A[k + 1 :, k] /= pivot
            A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])
    return det


class TestSymEigen:
    def test_identity(self):
        assert sym_eigen(np.eye(5)) == pytest.approx([1.0] * 5, abs=1e-14)

    def test_two_by_two_swap(self):
        assert sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_trace_and_determinant_oracles(self):
        rng = np.random.default_rng(20240811)
        B = rng.standard_normal((8, 8))
        M = 0.5 * (B + B.T)
        eigs = sym_eigen(M)
        assert eigs.sum() == pytest.approx(np.trace(M), abs=1e-10)
        det = lu_determinant(M)
        assert np.prod(eigs) == pytest.approx(det, rel=1e-8)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((12, 12))
        assert (np.diff(sym_eigen(0.5 * (B + B.T))) >= 0.0).all()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(EigenSolverError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(EigenSolverError):
            sym_eigen(np.zeros((2, 3)))

    def test_asymmetry_found_in_any_strip(self):
        # the symmetry test walks the upper triangle in strips; a defect in
        # the lower triangle of the last, partial strip is reported as measured
        M = 2.0 * np.eye(ROW_BLOCK + 44)
        M[ROW_BLOCK + 40, 7] = 1e-3
        with pytest.raises(EigenSolverError, match=r"max\|M - M\^T\| = 5\.000e-04 max\|M\|"):
            sym_eigen(M)
        assert singular_values(M).shape == (ROW_BLOCK + 44,)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 2.0])
    def test_centrosymmetric_matches_full_solve(self, alpha):
        # A and the power-family weighted matrix are centrosymmetric to
        # rounding, so they take the two half-size solves; the oracle is
        # LAPACK on the full matrix
        grid = make_grid(8.0, 400)
        spec_a, spec_w = power_family(alpha)
        for M in (assemble_A(alpha, grid).entries, assemble_wHa(spec_a, spec_w, grid).entries):
            defect = np.linalg.norm(M - M[::-1, ::-1])
            assert defect <= CENTRO_TOL * np.linalg.norm(M)
            ref = scipy.linalg.eigvalsh(M)
            assert np.abs(sym_eigen(M) - ref).max() <= 1e-14 * np.abs(ref).max()
            sv = np.sort(np.abs(ref))[::-1]
            assert np.abs(singular_values(M) - sv).max() <= 1e-14 * sv[0]

    def test_other_matrices_take_one_full_solve(self):
        # not centrosymmetric (rational(2,1,1,2) has b0 != b_inf), and odd
        # order (a symmetric Toeplitz matrix, centrosymmetric but odd): the
        # values are eigvalsh's own
        grid = make_grid(8.0, 400)
        W = assemble_wHa(*rational_test_family(0.5, 2.0, 1.0, 1.0, 2.0), grid).entries
        assert np.linalg.norm(W - W[::-1, ::-1]) > 1e6 * CENTRO_TOL * np.linalg.norm(W)
        assert np.array_equal(sym_eigen(W), np.linalg.eigvalsh(W))
        i = np.arange(301)
        T = 1.0 / (1.0 + np.abs(i[:, np.newaxis] - i[np.newaxis, :]))
        assert np.array_equal(T, T[::-1, ::-1])
        assert np.array_equal(sym_eigen(T), np.linalg.eigvalsh(T))


class TestSingularValues:
    def test_zero_matrix(self):
        assert (singular_values(np.zeros((4, 6))) == 0.0).all()

    def test_diagonal(self):
        sv = singular_values(np.diag([3.0, -4.0]))
        assert sv == pytest.approx([4.0, 3.0], abs=1e-14)

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, -2.0])
        v = np.array([3.0, 0.0, 4.0, 0.0])
        sv = singular_values(np.outer(u, v))
        assert sv[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert np.abs(sv[1:]).max() <= 10 * np.finfo(float).eps * sv[0]

    def test_descending(self):
        rng = np.random.default_rng(11)
        sv = singular_values(rng.standard_normal((15, 9)))
        assert (np.diff(sv) <= 0.0).all()

    def test_matches_gesvd_on_suite_matrices(self):
        # the cross block (rectangular route), a diagonal factor block and a
        # C1 residual (symmetric route), each to the numerical-rank tolerance
        grid = make_grid(10.0, 800)
        A = assemble_A(0.5, grid)
        L = assemble_L(0.5, grid)
        m0, mi = grid.side("zero"), grid.side("infinity")
        for M in (
            A.entries[m0, mi],
            L.entries[m0, m0],
            operator_square(assemble_L_rect(0.5, grid)).entries - A.entries,
        ):
            ref = scipy.linalg.svd(M, compute_uv=False, lapack_driver="gesvd")
            sv = singular_values(M)
            assert sv.shape == ref.shape
            assert np.abs(sv - ref).max() <= max(M.shape) * np.finfo(float).eps * ref[0]


class TestNorms:
    def test_diag_example(self):
        M = np.diag([1.0, 2.0, 3.0])
        assert op_norm(M) == pytest.approx(3.0, abs=1e-13)
        assert frobenius_norm(M) == pytest.approx(math.sqrt(14.0), abs=1e-13)
        assert nuclear_norm(M) == pytest.approx(6.0, abs=1e-12)

    def test_zero(self):
        Z = np.zeros((3, 3))
        assert op_norm(Z) == 0.0
        assert frobenius_norm(Z) == 0.0
        assert nuclear_norm(Z) == 0.0

    def test_hilbert_schmidt_identity_indicator(self):
        # |u L_0|_HS^2 = 2^-1 * int_1^e dt/t = 1/2, up to edge-of-support
        # quadrature error of the indicator
        grid = make_grid(4.0, 600)
        u = lambda t: ((t >= 1.0) & (t <= math.e)).astype(float)
        uL = assemble_uL(u, assemble_L_rect(0.0, grid))
        assert frobenius_norm(uL) ** 2 == pytest.approx(0.5, rel=2e-2)

    def test_norm_chain_on_assembled_operators(self):
        grid = make_grid(6.0, 120)
        spec_a, spec_w = rational_test_family(0.5, 1.0, -1.0, 1.0, 2.0)
        for M in (assemble_A(0.0, grid), assemble_A(0.5, grid), assemble_wHa(spec_a, spec_w, grid)):
            o, f, n = op_norm(M), frobenius_norm(M), nuclear_norm(M)
            assert o <= f * (1.0 + 1e-12)
            assert f <= n * (1.0 + 1e-12)

    def test_weyl_interlacing_spot_check(self):
        grid = make_grid(6.0, 120)
        A = assemble_A(0.0, grid)
        sub = A.entries[:60, :60]
        assert sym_eigen(sub)[-1] <= sym_eigen(A)[-1] + 1e-13

    def test_persymmetric_eigen_invariance(self):
        grid = make_grid(6.0, 80)
        A = assemble_A(0.25, grid)
        e1 = sym_eigen(A)
        e2 = sym_eigen(A.entries[::-1, ::-1])
        assert np.abs(e1 - e2).max() <= 1e-12 * max(abs(e1[0]), abs(e1[-1]))


def _top_abs_eig(M):
    """Oracle: largest |eigenvalue| from the dense symmetric solve."""
    return float(np.abs(np.linalg.eigvalsh(0.5 * (M + M.T))).max())


class TestLanczosNorm:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_eigvalsh_on_suite_operators(self, alpha):
        # C1's model norm, wide residual and window map, and C3's composition
        # residual, each against the dense solve of the formed matrix
        grid = make_grid(10.0, 800)
        A = assemble_A(alpha, grid).entries
        L = assemble_L(alpha, grid).entries
        Lr = assemble_L_rect(alpha, grid)
        H0, _ = assemble_model_split(alpha, grid)
        cases = (
            (A, None),
            (operator_square(Lr).entries - A, None),
            (lambda x: L @ (L @ x) - A @ x, L @ L - A),
            (H0.entries - composed_block(Lr, "infinity").entries, None),
        )
        for M, dense in cases:
            ref = _top_abs_eig(M if dense is None else dense)
            got = op_norm(M, len(A)) if callable(M) else op_norm(M)
            assert abs(got - ref) <= 1e-14 * ref

    def test_antisymmetric_top_eigenvector(self):
        # a persymmetric matrix maps vectors symmetric under index reversal
        # to symmetric ones, so a start vector of that class (e.g. all ones)
        # never sees the antisymmetric top eigenvector
        n = 64
        rng = np.random.default_rng(5)
        B = rng.standard_normal((n, n))
        B = B + B[::-1, ::-1]
        u = np.arange(n) - 0.5 * (n - 1)
        u /= np.linalg.norm(u)
        M = 0.05 * (B + B.T) + 10.0 * np.outer(u, u)
        vals, vecs = np.linalg.eigh(M)
        top = np.argmax(np.abs(vals))
        assert np.allclose(vecs[::-1, top], -vecs[:, top])
        assert abs(op_norm(M) - abs(vals[top])) <= 1e-14 * abs(vals[top])

    def test_non_finite_map_raises_at_first_step(self):
        calls = []

        def nan_map(x):
            calls.append(1)
            return np.full_like(x, np.nan)

        with pytest.raises(EigenSolverError, match="non-finite"):
            op_norm(nan_map, 50)
        assert len(calls) == 1

    def test_step_cap_raises(self):
        # a dense uniform spectrum: the top Ritz value cannot reach the
        # rounding-level residual within the step cap
        d = np.linspace(0.0, 1.0, 2000)
        calls = []

        def diag_map(x):
            calls.append(1)
            return d * x

        with pytest.raises(EigenSolverError, match="did not converge"):
            op_norm(diag_map, d.size)
        assert len(calls) == 300
        with pytest.raises(EigenSolverError):
            op_norm(np.diag(d))

    def test_bit_identical_repeats(self):
        grid = make_grid(10.0, 800)
        A = assemble_A(0.5, grid).entries
        M = operator_square(assemble_L_rect(0.5, grid)).entries - A
        assert op_norm(A) == op_norm(A)
        assert op_norm(M) == op_norm(M.copy())
