"""Eigendecomposition, singular values and norms, checked against
independently computed oracles (hand-rolled LU determinant, analytic
singular values, scipy's gesvd, the Hilbert-Schmidt integral identity)."""

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
    assemble_uL,
    assemble_wHa,
    inversion_conjugate,
    operator_square,
    projection_mask,
    project,
)
from hankellab.kernels import rational_test_family
from hankellab.quadrature import quad_integral


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
        dec = sym_eigen(np.eye(5))
        assert dec.eigenvalues == pytest.approx([1.0] * 5, abs=1e-14)

    def test_two_by_two_swap(self):
        dec = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_trace_and_determinant_oracles(self):
        rng = np.random.default_rng(20240811)
        B = rng.standard_normal((8, 8))
        M = 0.5 * (B + B.T)
        dec = sym_eigen(M, want_vectors=True)
        assert dec.eigenvalues.sum() == pytest.approx(np.trace(M), abs=1e-10)
        det = lu_determinant(M)
        assert np.prod(dec.eigenvalues) == pytest.approx(det, rel=1e-8)

    def test_vectors_orthonormal_and_residual(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((30, 30))
        M = 0.5 * (B + B.T)
        dec = sym_eigen(M, want_vectors=True)
        V = dec.eigenvectors
        assert np.abs(V.T @ V - np.eye(30)).max() <= 1e-11
        assert dec.residual_bound <= 1e-11

    def test_sorted_ascending(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((12, 12))
        dec = sym_eigen(0.5 * (B + B.T))
        assert (np.diff(dec.eigenvalues) >= 0.0).all()

    def test_rejects_nonsymmetric(self):
        with pytest.raises(EigenSolverError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(EigenSolverError):
            sym_eigen(np.zeros((2, 3)))


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
        m0 = projection_mask(grid, "zero")
        mi = projection_mask(grid, "infinity")
        for M in (
            project(A, m0, mi).entries,
            project(L, m0, m0).entries,
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
        assert sym_eigen(sub).eigenvalues[-1] <= sym_eigen(A).eigenvalues[-1] + 1e-13

    def test_persymmetric_eigen_invariance(self):
        grid = make_grid(6.0, 80)
        A = assemble_A(0.25, grid)
        e1 = sym_eigen(A).eigenvalues
        e2 = sym_eigen(inversion_conjugate(A)).eigenvalues
        assert np.abs(e1 - e2).max() <= 1e-12 * max(abs(e1[0]), abs(e1[-1]))
