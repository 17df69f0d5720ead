"""Dense symmetric eigendecomposition, singular values, and the operator /
Hilbert-Schmidt / nuclear norms.

Singular values come from one backward-stable solve, accurate to about
eps * sigma_1: the absolute eigenvalues of a symmetric matrix (every square
operator of the suite), and the SVD of any other matrix (the rectangular
cross blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EigenSolverError
from .quadrature import OperatorMatrix

__all__ = [
    "EigenDecomposition",
    "sym_eigen",
    "singular_values",
    "op_norm",
    "frobenius_norm",
    "nuclear_norm",
]


def _as_array(M) -> np.ndarray:
    if isinstance(M, OperatorMatrix):
        return M.entries
    return np.asarray(M, dtype=float)


def _is_symmetric(A: np.ndarray) -> bool:
    """Square and symmetric to 1e-12 relative to max|A|."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    asym = np.abs(A - A.T).max(initial=0.0)
    return asym <= 1e-12 * max(np.abs(A).max(initial=0.0), 1e-300)


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: Optional[np.ndarray]  # orthonormal columns, or None
    residual_bound: float


def sym_eigen(M, want_vectors: bool = False) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The input must be symmetric to 1e-12 relative; it is symmetrised exactly
    before the solve so eigenvalues are real by construction.
    """
    A = _as_array(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise EigenSolverError(f"expected a square matrix, got shape {A.shape}")
    if not _is_symmetric(A):
        asym = np.abs(A - A.T).max()
        raise EigenSolverError(f"matrix not symmetric: max|M - M^T| = {asym:.3e}")
    S = 0.5 * (A + A.T)
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(S)
        else:
            vals = np.linalg.eigvalsh(S)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failed to converge: {exc}") from exc
    residual = 0.0
    if vecs is not None:
        fro = float(np.linalg.norm(S, "fro"))
        if fro > 0.0:
            res = S @ vecs - vecs * vals[np.newaxis, :]
            residual = float(np.linalg.norm(res, axis=0).max() / fro)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs, residual_bound=residual)


def singular_values(M) -> np.ndarray:
    """Descending singular values: sorted |eigenvalues| of a symmetric
    matrix, the SVD of any other."""
    A = _as_array(M)
    if A.ndim != 2:
        raise EigenSolverError(f"expected a matrix, got ndim={A.ndim}")
    try:
        if _is_symmetric(A):
            return np.sort(np.abs(np.linalg.eigvalsh(0.5 * (A + A.T))))[::-1]
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"singular-value solver failed to converge: {exc}") from exc


def op_norm(M) -> float:
    """Largest singular value."""
    sv = singular_values(M)
    return float(sv[0]) if sv.size else 0.0


def frobenius_norm(M) -> float:
    """Hilbert-Schmidt norm, from the entries."""
    A = _as_array(M)
    return float(np.sqrt((A * A).sum()))


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    return float(singular_values(M).sum())
