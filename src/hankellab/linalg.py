"""Dense symmetric eigenvalues, singular values, and the operator /
Hilbert-Schmidt / nuclear norms.

Singular values come from one backward-stable solve, accurate to about
eps * sigma_1: the absolute eigenvalues of a symmetric matrix (every square
operator of the suite), and the SVD of any other matrix (the rectangular
cross blocks).  Symmetric eigenvalues of an even-order matrix that is
centrosymmetric to rounding come from two half-size solves (see
:func:`sym_eigen`), with one private route for eigenvalues and singular
values alike.

The operator norm of a symmetric matrix, or of a symmetric linear map given
by its action, is its largest |eigenvalue| from Lanczos with full
reorthogonalisation, so no dense solve is needed for one top value; any
other matrix gives sigma_1 from the SVD.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import EigenSolverError
from .quadrature import ROW_BLOCK, OperatorMatrix

__all__ = [
    "sym_eigen",
    "singular_values",
    "op_norm",
    "frobenius_norm",
    "nuclear_norm",
]

# Lanczos stops once the residual bound |beta_k s_kj| of the top Ritz value
# theta_j is below LANCZOS_TOL * |theta_j|, and raises after LANCZOS_CAP steps
# (or n, if smaller).  The start vector has no symmetry under index reversal:
# the suite's persymmetric matrices keep the symmetric and the antisymmetric
# vectors apart, and a start vector in one class never sees the other.
LANCZOS_TOL = 4.0 * np.finfo(float).eps
LANCZOS_CAP = 300
LANCZOS_START_FREQ = 0.70710678
LANCZOS_START_PHASE = 0.3

# A symmetric matrix with |S - JSJ|_F <= CENTRO_TOL * |S|_F (J the index
# reversal) is solved as two half-size matrices.  The suite's
# inversion-symmetric operators sit at 0.6-1.9 eps for alpha <= 2 (3.9 eps at
# alpha = 5, 7.4 eps at alpha = 10) on the midpoint log grid.
CENTRO_TOL = 16.0 * np.finfo(float).eps


def _as_array(M) -> np.ndarray:
    if isinstance(M, OperatorMatrix):
        return M.entries
    return np.asarray(M, dtype=float)


def _asymmetry(A: np.ndarray) -> float:
    """max|A - A^T| / max|A| of a square matrix, compared strip by strip over
    the upper triangle (``ROW_BLOCK`` rows at a time) with no N x N
    temporary."""
    n, asym = A.shape[0], 0.0
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        strip = A[r0:r1, r0:] - A[r0:, r0:r1].T
        asym = max(asym, float(np.abs(strip).max(initial=0.0)))
    return asym / max(float(A.max(initial=0.0)), -float(A.min(initial=0.0)), 1e-300)


def _is_symmetric(A: np.ndarray) -> bool:
    """Square and symmetric to 1e-12 relative to max|A|."""
    return A.ndim == 2 and A.shape[0] == A.shape[1] and _asymmetry(A) <= 1e-12


def _centro_halves(S: np.ndarray):
    """(B' + C'J, B' - C'J) for an even-order symmetric S = [[B, C], [C^T, D]]
    (m x m blocks, J the index reversal), or None when its centrosymmetry
    defect |S - JSJ|_F exceeds CENTRO_TOL * |S|_F.

    B' = 1/2 (B + JDJ) and C' = 1/2 (C + JC^TJ) are the blocks of the
    centrosymmetric part 1/2 (S + JSJ), which maps the even vectors [u; Ju]
    through the first matrix and the odd vectors [u; -Ju] through the second.
    """
    n = S.shape[0]
    if n % 2 or n == 0:
        return None
    m = n // 2
    B, JDJ = S[:m, :m], S[m:, m:][::-1, ::-1]
    CJ, JCt = S[:m, m:][:, ::-1], S[m:, :m][::-1, :]
    # |S - JSJ|_F^2 = 2 |B - JDJ|_F^2 + 2 |CJ - JC^T|_F^2, from m x m pieces
    diff = B - JDJ
    defect_sq = float(np.dot(diff.ravel(), diff.ravel()))
    np.subtract(CJ, JCt, out=diff)
    defect_sq += float(np.dot(diff.ravel(), diff.ravel()))
    if math.sqrt(2.0 * defect_sq) > CENTRO_TOL * np.linalg.norm(S):
        return None
    plus = B + JDJ
    off = np.add(CJ, JCt, out=diff)
    minus = plus - off
    plus += off
    plus *= 0.5
    minus *= 0.5
    return plus, minus


def _sym_eigvalsh(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part of a square matrix known
    to be symmetric: two half-size solves when it is centrosymmetric to
    rounding, one ``eigvalsh`` otherwise."""
    # bound to a name: handing the temporary straight to eigvalsh measured a
    # 10 MB higher peak RSS on the benchmark's spectrum workload (N up to 3200)
    S = 0.5 * (A + A.T)
    halves = _centro_halves(S)
    if halves is None:
        return np.linalg.eigvalsh(S)
    del S  # only the two halves stay alive through their solves
    plus, minus = halves
    return np.sort(np.concatenate([np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)]))


def sym_eigen(M) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    The input must be symmetric to 1e-12 relative; it is symmetrised exactly
    before the solve so eigenvalues are real by construction.  An even-order
    S that is centrosymmetric to rounding (JSJ = S with J the index
    reversal, as the suite's inversion-symmetric operators are on the
    midpoint log grid), |S - JSJ|_F <= CENTRO_TOL * |S|_F, is solved as the
    two half-size matrices B +- CJ of 1/2 (S + JSJ) (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976), at about a quarter of the flops.  By
    Weyl's inequality that moves each eigenvalue by at most
    1/2 |S - JSJ|_2 <= 1/2 CENTRO_TOL |S|_F; every other matrix takes one
    ``eigvalsh``.
    """
    A = _as_array(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise EigenSolverError(f"expected a square matrix, got shape {A.shape}")
    asym = _asymmetry(A)
    if not asym <= 1e-12:
        raise EigenSolverError(f"matrix not symmetric: max|M - M^T| = {asym:.3e} max|M|")
    try:
        return _sym_eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failed to converge: {exc}") from exc


def singular_values(M) -> np.ndarray:
    """Descending singular values: sorted |eigenvalues| of a symmetric
    matrix, the SVD of any other."""
    A = _as_array(M)
    if A.ndim != 2:
        raise EigenSolverError(f"expected a matrix, got ndim={A.ndim}")
    try:
        if _is_symmetric(A):
            return np.sort(np.abs(_sym_eigvalsh(A)))[::-1]
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"singular-value solver failed to converge: {exc}") from exc


def _lanczos_top(matvec: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Largest |eigenvalue| of the symmetric map ``matvec`` on R^n: Lanczos
    with full reorthogonalisation (classical Gram-Schmidt, twice) from the
    fixed start vector."""
    if n == 0:
        return 0.0
    cap = min(n, LANCZOS_CAP)
    Q = np.empty((cap, n))
    q = np.cos(LANCZOS_START_FREQ * np.arange(n) + LANCZOS_START_PHASE)
    Q[0] = q / np.linalg.norm(q)
    alphas, betas = [], []
    for k in range(cap):
        w = np.asarray(matvec(Q[k]), dtype=float)
        if not np.isfinite(w).all():
            raise EigenSolverError(f"Lanczos step {k + 1}: the map returned a non-finite vector")
        alphas.append(float(Q[k] @ w))
        basis = Q[: k + 1]
        for _ in range(2):
            w = w - basis.T @ (basis @ w)
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        theta, S = np.linalg.eigh(T)
        j = int(np.argmax(np.abs(theta)))
        top = abs(float(theta[j]))
        bound = beta * abs(float(S[-1, j]))
        # converged, or the Krylov space is exhausted (beta = 0 gives bound 0)
        if bound <= LANCZOS_TOL * top or k + 1 == n:
            return top
        if k + 1 < cap:
            Q[k + 1] = w / beta
            betas.append(beta)
    raise EigenSolverError(
        f"Lanczos did not converge in {cap} steps: residual bound {bound:.3e} "
        f"for the top Ritz value {top:.6e}"
    )


def op_norm(M, n: Optional[int] = None) -> float:
    """Operator norm of a matrix, or of the symmetric linear map x -> M(x)
    on R^n when ``M`` is a callable.

    A symmetric matrix or map gives its largest |eigenvalue| by Lanczos; any
    other matrix its largest singular value from the SVD.
    """
    if callable(M):
        return _lanczos_top(M, n)
    A = _as_array(M)
    if _is_symmetric(A):
        return _lanczos_top(lambda x: A @ x, A.shape[0])
    sv = singular_values(A)
    return float(sv[0]) if sv.size else 0.0


def frobenius_norm(M) -> float:
    """Hilbert-Schmidt norm, from the entries."""
    A = _as_array(M)
    return float(np.sqrt((A * A).sum()))


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    return float(singular_values(M).sum())
