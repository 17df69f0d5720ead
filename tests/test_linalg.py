"""Eigenvalues, singular values and norms, checked against independently
computed oracles (hand-rolled LU determinant, analytic singular values,
scipy's gesvd, scipy's eigh and LAPACK's Jacobi SVD for the certified
low-rank route, numpy's eigvalsh for the Lanczos operator norm,
the Hilbert-Schmidt integral identity)."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import hankellab.linalg
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
    assemble_wHa_strips,
    composed_block,
    operator_square,
)
from hankellab.kernels import rational_test_family
from hankellab.linalg import (
    CENTRO_TOL,
    LOWRANK_BLOCK,
    LOWRANK_CAP,
    LOWRANK_SPARE,
    _centro_halves,
    _dense_eigvalsh,
    _lowrank_eigvalsh,
    _range_basis,
    _scale_for,
    _start_block,
    _symmetric,
)
from hankellab.quadrature import ROW_BLOCK, UpperStrips
from hankellab.spectra import analyze, predict
from hankellab.verify import _cross_block, _GridPieces, _residual_matrix


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


def scale_of(M):
    """The power of two ``_scale_for(max|M|)`` the symmetric route takes for M."""
    return _scale_for(np.abs(M).max(initial=0.0))


def lowrank(M):
    """The certified low-rank route on an exactly symmetric array M as
    ``sym_eigen`` takes it: on views of its upper strips."""
    amax = np.abs(M).max(initial=0.0)
    return _lowrank_eigvalsh(UpperStrips.of(M, amax), _scale_for(amax))


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

    def test_one_ulp_from_symmetric_is_not_symmetric(self):
        # symmetric only to rounding is not symmetric: sym_eigen names the
        # measured defect, and singular_values and op_norm take one SVD of
        # the array as it is
        M = assemble_A(0.5, make_grid(8.0, 400)).entries.copy()
        M[3, 250] = np.nextafter(M[3, 250], np.inf)
        defect = (M[3, 250] - M[250, 3]) / np.abs(M).max()
        assert defect > 0.0
        with pytest.raises(EigenSolverError, match=re.escape(f"max|M - M^T| = {defect:.3e} max|M|")):
            sym_eigen(M)
        sv = np.linalg.svd(M, compute_uv=False)
        assert np.array_equal(singular_values(M), sv)
        assert op_norm(M) == sv[0]

    def test_asymmetry_found_in_any_strip(self):
        # the symmetry test walks the upper triangle in strips; a defect in
        # the lower triangle of the last, partial strip is reported as measured
        M = 2.0 * np.eye(ROW_BLOCK + 44)
        M[ROW_BLOCK + 40, 7] = 1e-3
        with pytest.raises(EigenSolverError, match=r"max\|M - M\^T\| = 5\.000e-04 max\|M\|"):
            sym_eigen(M)
        assert singular_values(M).shape == (ROW_BLOCK + 44,)

    @pytest.mark.parametrize("solve", [sym_eigen, singular_values, op_norm])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_named_before_any_solve(self, solve, bad):
        # a NaN read as an asymmetry, an SVD that did not converge, or a
        # numpy warning from the subtraction: the scan names the entry instead
        M = np.eye(300)
        M[5, 9] = M[9, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenSolverError, match="^matrix has non-finite entries$"):
                solve(M)
        if solve is singular_values:
            with pytest.raises(EigenSolverError, match="^matrix has non-finite entries$"):
                solve(M[:, :250])

    @pytest.mark.parametrize("R,N", [(6.0, 200), (12.0, 1600), (80.0, 1600)])
    @pytest.mark.parametrize(
        "kernel", ["carleman", "power", "rational(1,-1,1,1)", "rational(2,1,1,2)"]
    )
    def test_packed_form_gives_the_array_bits(self, kernel, R, N):
        # the dense route (order 200, and the R = 80 give-up) and the
        # low-rank route on an array's upper-strip views and on the packed
        # strips of the same step: one set of bits
        _, (spec_a, spec_w) = _FAMILIES[kernel]
        grid = make_grid(R, N)
        packed = assemble_wHa_strips(spec_a, spec_w, grid)
        assert np.array_equal(sym_eigen(packed), sym_eigen(assemble_wHa(spec_a, spec_w, grid)))

    @pytest.mark.parametrize("kernel", ["power", "rational(2,1,1,2)"])
    def test_packed_give_up_peak(self, kernel, traced_peak):
        # at R = 80 the route gives up and the packed form is materialised,
        # exactly symmetric, with no 1/2 (A + A^T) copy: 2.29 N^2 doubles
        # (centrosymmetric, two half-size solves) and 1.80 N^2 measured,
        # against 2.75 and 2.26 for the parent's dense solve of the array
        _, (spec_a, spec_w) = _FAMILIES[kernel]
        N = 1600
        grid = make_grid(80.0, N)
        _, peak = traced_peak(lambda: sym_eigen(assemble_wHa_strips(spec_a, spec_w, grid)))
        assert peak <= 2.4 * 8 * N**2

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 2.0])
    def test_centrosymmetric_matches_full_solve(self, alpha):
        # A and the power-family weighted matrix are centrosymmetric to
        # rounding, so they take the two half-size solves; the oracle is
        # LAPACK on the full matrix
        grid = make_grid(8.0, 400)
        spec_a, spec_w = rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0)
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

    def test_huge_entries_not_split(self):
        # entries near 1e298: the centrosymmetry defect and |S|_F are taken
        # of S / max|S|, so neither overflows and this matrix, which is not
        # centrosymmetric (b0 != b_inf), is not split into halves
        M = assemble_wHa(*rational_test_family(0.0, 1.0, 1.0, 1e150, 1.0), make_grid(6.0, 200)).entries
        assert np.abs(M).max() > 1e297
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _centro_halves(M, scale_of(M)) is None
            eigs = sym_eigen(M)
        ref = scipy.linalg.eigvalsh(M * 1e-290) / 1e-290
        assert np.abs(eigs - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [200, 1200])
    def test_near_symmetric_entries_in_the_top_binade(self, n, traced_peak):
        # max|M| in [2^1023, 2^1024), where a_ij + a_ji overflows, and M one
        # entry off symmetric: the gate measures a_ij - a_ji in tiles, with
        # no warning and no copy of M, and finds the defect and max|M| of
        # M / 2^600 times 2^600; sym_eigen names the defect, and
        # singular_values takes one SVD, which agrees with the SVD of
        # M / 2^600 times 2^600 to a dense solve's accuracy
        u = 1e-3 * (1.5 + np.cos(0.3 * np.arange(n)))
        u[0] = 1.2e154
        M = np.outer(u, u)
        M[0, 1] *= 1.0 + 2.0**-45
        assert 2.0**1023 <= np.abs(M).max() < np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (asym, amax), peak = traced_peak(lambda: _symmetric(M))
            with pytest.raises(EigenSolverError, match=re.escape(f"max|M - M^T| = {asym / amax:.3e} max|M|")):
                sym_eigen(M)
            sv = singular_values(M)
        assert asym > 0.0 and amax == np.abs(M).max()
        small = M * 2.0**-600
        assert (asym, amax) == tuple(x * 2.0**600 for x in _symmetric(small))
        assert peak <= 3 * 8 * ROW_BLOCK**2
        assert np.array_equal(sv, np.linalg.svd(M, compute_uv=False))
        ref = np.linalg.svd(small, compute_uv=False) * 2.0**600
        assert np.abs(sv - ref).max() <= n * np.finfo(float).eps * sv[0]

    @pytest.mark.parametrize("n", [200, 1200])
    def test_eigenvalues_past_the_largest_double_raise(self, n):
        # finite, exactly symmetric entries up to 1.7e308 whose top
        # eigenvalues overflow: the dense route (order 200) returned inf and
        # the low-rank route (order 1200) overflowed in W / scale; both are
        # named, with no numpy warning (RuntimeWarning is an error here)
        W = assemble_wHa(*rational_test_family(0.5, 2.0, 1.0, 1.0, 2.0), make_grid(10.0, n)).entries
        M = W / np.abs(W).max() * 1.7e308
        assert np.array_equal(M, M.T) and np.isfinite(M).all()
        for solve in (sym_eigen, singular_values):
            with pytest.raises(EigenSolverError, match="^matrix has eigenvalues past the largest double$"):
                solve(M)


# the benchmark's four spectrum families: kernel -> (alpha, (kernel, weight))
_FAMILIES = {
    "carleman": (0.0, rational_test_family(0.0, 1.0, 1.0, 1.0, 1.0)),
    "power": (0.5, rational_test_family(0.5, 1.0, 1.0, 1.0, 1.0)),
    "rational(1,-1,1,1)": (0.0, rational_test_family(0.0, 1.0, -1.0, 1.0, 1.0)),
    "rational(2,1,1,2)": (0.5, rational_test_family(0.5, 2.0, 1.0, 1.0, 2.0)),
}


@pytest.fixture(scope="class")
def verify_matrices():
    """(R, N) -> the matrices verify solves at that step at alpha = 0.5
    with rational(2,1,1,2): A, the weighted Hankel matrix, the C7 residual
    and C6's three blocks (the symmetric part of the cross block with its
    columns reversed, from C6's own helper).
    Each step is built once, on first use."""
    steps = {}

    def at(R, N):
        if (R, N) not in steps:
            p = _GridPieces(0.5, make_grid(R, N), (2.0, 1.0, 1.0, 2.0))
            steps[R, N] = {
                "A": p.A.entries,
                "weighted": p.weighted[0].entries,
                "C7": _residual_matrix(p),
                "L_00": p.L.entries[p.m0, p.m0],
                "L_ii": p.L.entries[p.mi, p.mi],
                "A_0iJ": _cross_block(p.A.entries, p.grid),
            }
        return steps[R, N]

    return at


def _jacobi_svdvals(M):
    """Oracle: descending singular values from LAPACK's preconditioned
    Jacobi SVD (dgejsv, JOBA='C').  On the suite's graded cross blocks it
    resolves the values below eps * sigma_1 that a bidiagonal SVD returns as
    rounding noise (2-norm about 2e-15 * sigma_1 at order 1200, above the
    low-rank certificate)."""
    sva, _, _, work, _, info = scipy.linalg.lapack.dgejsv(M, joba=0, jobu=3, jobv=3)
    assert info == 0
    return np.sort(sva * (work[0] / work[1]))[::-1]


# C6's cross block of A at (R, N) -> alpha, built alone; it does not depend
# on the family
_CROSS_BLOCKS = {(16.0, 3200): 0.0}

# (name, R, N, basis width the route certifies at).  The families at
# (10, 800) and (11, 1100) sit just past the first width (numerical rank
# 65-79); (24, 3200) has numerical rank 159, so it needs the third.  C6's
# blocks at (10, 800) have order 400 and rank 8-24.
_SUITE_CASES = (
    [
        (name, R, N, 128)
        for R, N in ((10.0, 800), (11.0, 1100), (12.0, 1600), (16.0, 3200))
        for name in _FAMILIES
    ]
    + [("rational(2,1,1,2)", 24.0, 3200, 256)]
    + [
        (name, R, N, 128)
        for R, N in ((10.0, 800), (14.0, 2400))
        for name in ("A", "weighted", "C7")
    ]
    + [(name, 10.0, 800, 64) for name in ("L_00", "L_ii", "A_0iJ")]
    + [("A_0iJ", 14.0, 2400, 64), ("A_0iJ", 16.0, 3200, 64)]
)


class TestLowRankRoute:
    @pytest.mark.parametrize("case", _SUITE_CASES, ids=lambda c: f"{c[0]}-{c[1]:g}-{c[2]}")
    def test_suite_matrices_within_certificate(self, case, request, monkeypatch):
        name, R, N, width = case
        if name in _FAMILIES:
            _, (spec_a, spec_w) = _FAMILIES[name]
            M = assemble_wHa(spec_a, spec_w, make_grid(R, N)).entries
        elif name == "A_0iJ":
            grid = make_grid(R, N)
            if (R, N) in _CROSS_BLOCKS:
                A = assemble_A(_CROSS_BLOCKS[R, N], grid).entries
            else:
                A = request.getfixturevalue("verify_matrices")(R, N)["A"]
            # the oracle reads the cross block before its symmetric part is formed
            cross, M = A[grid.side("zero"), grid.side("infinity")], _cross_block(A, grid)
        else:
            M = request.getfixturevalue("verify_matrices")(R, N)[name]
        n = M.shape[0]
        widths = []

        def spy(rows, j0, j1):
            widths.append(j1)
            return _start_block(rows, j0, j1)

        monkeypatch.setattr(hankellab.linalg, "_start_block", spy)
        found = lowrank(M)
        assert found is not None
        values, certificate = found
        # certified at the width the case names, the doubling from
        # LOWRANK_BLOCK columns within LOWRANK_CAP * n
        k = widths[-1]
        assert k == width and widths == [LOWRANK_BLOCK << i for i in range(len(widths))]
        assert k <= LOWRANK_CAP * n
        if name == "A_0iJ":
            # Mirsky and Weyl: the sorted |values| and the singular values of
            # the unreversed block differ by the certificate in 2-norm
            got, ref = np.sort(np.abs(values))[::-1], _jacobi_svdvals(cross)
        else:
            # Hoffman-Wielandt: the sorted lists differ by the certificate
            # in 2-norm
            got, ref = values, scipy.linalg.eigh(0.5 * (M + M.T), eigvals_only=True)
        top = np.abs(ref).max()
        tol = n * np.finfo(float).eps
        # the certificate sits below the accuracy of a dense solve
        assert np.linalg.norm(got - ref) <= certificate <= tol * top
        # the basis of the certified range is orthonormal to rounding, and
        # it counts the numerical rank to within the spare columns
        Q, count = _range_basis(M @ (_start_block(n, 0, k) * scale_of(M)), tol, k)
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) <= 10 * k * np.finfo(float).eps
        assert abs(count - np.count_nonzero(np.abs(ref) > tol * top)) <= LOWRANK_SPARE
        assert abs(values.sum() - np.trace(M)) <= 1e-12 * np.abs(values).sum()
        again = lowrank(M)
        assert np.array_equal(again[0], values) and again[1] == certificate
        eigs = sym_eigen(M)
        assert np.array_equal(eigs, values)
        # the values past the basis are exact zeros
        assert np.count_nonzero(eigs) <= k
        assert np.array_equal(singular_values(M), np.sort(np.abs(values))[::-1])

    def test_gives_up_unread_below_order_256(self, verify_matrices, monkeypatch):
        # the first 64 columns exceed n / 4 below order 256, so the route
        # gives up before it multiplies A: C6's blocks at (8, 400) (order
        # 200) take the dense route
        def no_product(*args):
            raise AssertionError("A was multiplied")

        monkeypatch.setattr(hankellab.linalg, "_start_block", no_product)
        blocks = verify_matrices(8.0, 400)
        for name in ("L_00", "L_ii", "A_0iJ"):
            assert lowrank(blocks[name]) is None
        assert lowrank(np.zeros((255, 255))) is None
        with pytest.raises(AssertionError, match="A was multiplied"):
            lowrank(np.zeros((256, 256)))

    def test_high_rank_gives_up_at_the_first_width(self, monkeypatch):
        # the R = 80 ladder step has numerical rank 287-531 at order 1600,
        # past the 256 - LOWRANK_SPARE a basis of at most n / 4 can hold; the
        # decay of the first 64-column sketch shows it, so no wider basis
        # is tried and the dense route runs
        widths = []

        def spy(rows, j0, j1):
            widths.append(j1)
            return _start_block(rows, j0, j1)

        monkeypatch.setattr(hankellab.linalg, "_start_block", spy)
        for alpha, family in ((0.0, (1.0, 0.0, 1.0, 1.0)), (0.5, (2.0, 1.0, 1.0, 2.0))):
            M = assemble_wHa(*rational_test_family(alpha, *family), make_grid(80.0, 1600)).entries
            widths.clear()
            assert lowrank(M) is None
            assert widths == [LOWRANK_BLOCK]
            # the widest basis the doubling reaches within n / 4 = 400 is 256
            n = M.shape[0]
            k_max = max(w for w in (LOWRANK_BLOCK << i for i in range(8)) if w <= LOWRANK_CAP * n)
            ref = scipy.linalg.eigh(M, eigvals_only=True)
            rank = np.count_nonzero(np.abs(ref) > n * np.finfo(float).eps * np.abs(ref).max())
            assert rank > k_max - LOWRANK_SPARE

    def test_uncertified_widest_basis_falls_back_to_dense(self, monkeypatch):
        # a basis that misses one direction of the range never meets the
        # certificate: the route tries every width within n / 4 (64, 128
        # and 256 at order 1200), refuses after the widest, and sym_eigen
        # returns the dense route's bits
        _, (spec_a, spec_w) = _FAMILIES["rational(2,1,1,2)"]
        M = assemble_wHa(spec_a, spec_w, make_grid(12.0, 1200)).entries
        widths, range_basis = [], hankellab.linalg._range_basis

        def narrowed(Y, tol, limit):
            widths.append(Y.shape[1])
            Q, count = range_basis(Y, tol, limit)
            return (None if Q is None else Q[:, 1:]), count

        monkeypatch.setattr(hankellab.linalg, "_range_basis", narrowed)
        assert lowrank(M) is None
        assert widths == [64, 128, 256]
        amax = float(np.abs(M).max())
        dense = _dense_eigvalsh(UpperStrips.of(M, amax), _scale_for(amax))
        assert np.array_equal(sym_eigen(M), dense)

    def test_certificate_bounds_the_symmetric_part(self, monkeypatch):
        # an exactly symmetric S, solved on the dense route (order 200) and
        # on the low-rank route (order 1200): the values lie within
        # n eps max|lambda| of scipy's, and on the low-rank route within the
        # certificate (Hoffman-Wielandt), which is at least |S - Q T Q^T|_F
        _, (spec_a, spec_w) = _FAMILIES["rational(2,1,1,2)"]
        for R, N in ((6.0, 200), (12.0, 1200)):
            S = assemble_wHa(spec_a, spec_w, make_grid(R, N)).entries
            assert np.array_equal(S, S.T)
            values = sym_eigen(S)
            ref = scipy.linalg.eigh(S, eigvals_only=True)
            tol = N * np.finfo(float).eps * np.abs(ref).max()
            if N < 256:
                assert lowrank(S) is None
                assert np.abs(values - ref).max() <= tol
                continue
            bases, ritz = [], []
            range_basis, eigvalsh = hankellab.linalg._range_basis, np.linalg.eigvalsh

            def basis_spy(*args):
                found = range_basis(*args)
                bases.append(found[0])
                return found

            def ritz_spy(T):
                ritz.append(T)
                return eigvalsh(T)

            monkeypatch.setattr(hankellab.linalg, "_range_basis", basis_spy)
            monkeypatch.setattr(np.linalg, "eigvalsh", ritz_spy)
            low, certificate = lowrank(S)
            monkeypatch.undo()
            assert np.array_equal(low, values)
            assert np.linalg.norm(values - ref) <= certificate <= tol
            # T was formed on S scaled by a power of two
            Q, T = bases[-1], ritz[-1] / scale_of(S)
            assert certificate >= np.linalg.norm(S - Q @ T @ Q.T)

    def test_gate_takes_an_exactly_symmetric_array_as_it_is(self, traced_peak):
        # no copy: the gate holds its tile buffer and numpy's buffers for
        # the transposed and strided tiles, 2.5 ROW_BLOCK^2 doubles measured
        # whatever N (0.016 N^2 at N = 1600, where a copy is N^2)
        N = 1600
        M = assemble_A(0.5, make_grid(12.0, N)).entries
        assert np.array_equal(M, M.T)
        (asym, amax), peak = traced_peak(lambda: _symmetric(M))
        assert asym == 0.0 and amax == np.abs(M).max()
        assert peak <= 3 * 8 * ROW_BLOCK**2

    def test_no_householder_qr(self, monkeypatch):
        # the basis comes from Gram eigendecompositions alone
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr was called")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        _, (spec_a, spec_w) = _FAMILIES["rational(2,1,1,2)"]
        M = assemble_wHa(spec_a, spec_w, make_grid(12.0, 1600)).entries
        values, certificate = lowrank(M)
        assert certificate <= M.shape[0] * np.finfo(float).eps * np.abs(values).max()
        assert np.array_equal(sym_eigen(M), values)

    def test_full_rank_matrix_takes_dense_path(self):
        rng = np.random.default_rng(17)
        B = rng.standard_normal((1200, 1200))
        M = B @ B.T / 1200
        M = 0.5 * (M + M.T)
        assert lowrank(M) is None
        assert np.array_equal(sym_eigen(M), np.linalg.eigvalsh(M))

    def test_exact_rank_k_matrix_gives_k_nonzero_values(self):
        rng = np.random.default_rng(23)
        d = np.array([5.0, -3.0, 2.0, 1.0, -0.5, 0.25, 0.125])
        U = np.linalg.qr(rng.standard_normal((1200, d.size)))[0]
        M = (U * d) @ U.T
        M = 0.5 * (M + M.T)
        values, certificate = lowrank(M)
        assert np.count_nonzero(values) == d.size
        assert np.linalg.norm(values[values != 0.0] - np.sort(d)) <= certificate

    def test_zero_matrix(self):
        values, certificate = lowrank(np.zeros((1200, 1200)))
        assert certificate == 0.0 and not values.any()

    def test_huge_entries(self):
        # the products take a power-of-two scaled thin factor, so entries
        # near 1e298 neither overflow nor change the relative accuracy
        M = assemble_wHa(*rational_test_family(0.0, 1.0, 1.0, 1e150, 1.0), make_grid(12.0, 1600)).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, certificate = lowrank(M)
        ref = scipy.linalg.eigh(M * 1e-290, eigvals_only=True)
        assert np.linalg.norm(values * 1e-290 - ref) <= certificate * 1e-290

    def test_entries_in_the_top_binade(self):
        # max|S| in [2^1023, 2^1024) makes the scale 2^-1024, and W / scale
        # is at most max|theta| / scale, so with a finite top eigenvalue
        # nothing overflows.  A rank-1 u u^T dominated by u_0, with |u|^2
        # finite, against the route on M / 2^600 times 2^600 (the thin
        # factors of the first are subnormal, so the two agree to rounding,
        # not in their bits)
        n = 1200
        u = 1e-3 * (1.5 + np.cos(0.3 * np.arange(n)))
        u[0] = 1.2e154
        M = np.outer(u, u)
        assert np.array_equal(M, M.T) and 2.0**1023 <= np.abs(M).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, certificate = lowrank(M)
        small, _ = lowrank(M * 2.0**-600)
        assert np.isfinite(certificate) and np.count_nonzero(values) == 1
        assert values[-1] == pytest.approx(u @ u, rel=1e-15)
        assert np.abs(values - small * 2.0**600).max() <= n * np.finfo(float).eps * values[-1]

    @pytest.mark.parametrize("kernel", list(_FAMILIES))
    def test_spectral_metrics_match_dense_route(self, kernel):
        alpha, (spec_a, spec_w) = _FAMILIES[kernel]
        M = assemble_wHa(spec_a, spec_w, make_grid(12.0, 1600)).entries
        predicted = predict(alpha, spec_a.a0, spec_a.a_inf, spec_w.b0, spec_w.b_inf)
        low = analyze(sym_eigen(M), predicted)
        dense = analyze(_dense_eigvalsh(UpperStrips.of(M, np.abs(M).max()), scale_of(M)), predicted)
        tol = 1e-12 * np.abs(dense.eigenvalues).max()
        assert len(low.outliers) == len(dense.outliers)
        assert abs(low.fill_max_gap - dense.fill_max_gap) <= tol
        assert abs(low.hausdorff - dense.hausdorff) <= tol


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

    def test_non_symmetric_matrix_takes_one_svd(self):
        M = np.random.default_rng(31).standard_normal((1300, 1250))
        assert np.array_equal(singular_values(M), np.linalg.svd(M, compute_uv=False))

    def test_matches_gesvd_on_suite_matrices(self):
        # the cross block and its Hankel form with reversed columns, which
        # is symmetric only to rounding (one SVD each), a diagonal factor
        # block and a C1 residual (symmetric route), each to the
        # numerical-rank tolerance
        grid = make_grid(10.0, 800)
        A = assemble_A(0.5, grid)
        L = assemble_L(0.5, grid)
        m0, mi = grid.side("zero"), grid.side("infinity")
        for M in (
            A.entries[m0, mi],
            A.entries[m0, mi][:, ::-1],
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

    def test_non_symmetric_matrix_scanned_once(self, monkeypatch):
        # one symmetry scan, then sigma_1 from one SVD
        scans, asymmetry = [], hankellab.linalg._asymmetry

        def spy(A):
            scans.append(A.shape)
            return asymmetry(A)

        monkeypatch.setattr(hankellab.linalg, "_asymmetry", spy)
        M = np.random.default_rng(7).standard_normal((300, 300))
        assert op_norm(M) == pytest.approx(scipy.linalg.svdvals(M)[0], rel=1e-14)
        assert scans == [M.shape]

    def test_map_needs_its_dimension(self):
        with pytest.raises(TypeError, match="dimension n"):
            op_norm(lambda x: x)

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
