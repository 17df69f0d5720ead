"""Symmetric eigenvalues, singular values, and the operator /
Hilbert-Schmidt / nuclear norms.

Every matrix the program solves is exactly symmetric by construction, and
reaches this module in a form that is not scanned: the packed
:class:`~hankellab.quadrature.UpperStrips`, its upper row strips with
max|entry| known (``spectrum``'s weighted Hankel matrix as strips of its
own, never an N x N array, and verify's matrices, the symmetric part C6
forms of its cross block with the columns reversed among them, as views of
their arrays), or, for an operator norm, the map x -> S @ x.  Tests, not a
run-time scan, show those builders exactly symmetric.  An array, from any
other caller, passes one gate, ``_symmetric``, a scan in tiles that is its
input validation: a non-finite entry raises EigenSolverError before any
solve, an array with A == A^T is symmetric and is taken as it is, through
views of its upper strips, and any other is not.  So the symmetric matrices
share one private route, held in one format; the singular values are the
sorted absolute eigenvalues.  It first tries a certified low-rank solve: the suite's
operators have few eigenvalues above the rounding level, because their
symbols decay like e^(-pi |xi|) (97-109 of 3200 above n * eps * max|lambda|
for the four benchmark families at (16, 3200)).  A range finder from a
fixed start block gives Y = S Omega with k columns, each product with S one
pass over the strips: Y[r0:r1] += S[r0:r1, r0:] X[r0:] for a strip's rows
and Y[r1:] += S[r0:r1, r1:]^T X[r0:r1] for its mirror.  Its numerical range is
orthonormalised from Gram eigendecompositions alone (SVQB at two levels,
about sqrt(eps) * |Y| each, so no Householder QR), and Rayleigh-Ritz on that
basis of m <= k columns gives m eigenvalues; the other n - m are returned as
0.  The result is accepted only when the certificate is at most
n * eps * max|lambda|, the absolute accuracy of a dense solve.  The
certificate is |S - Q T Q^T|_F, summed over the strips at half the flops of
whole rows, plus |T|_2 |E|_F (2 + |E|_F) for the rounding-level departure
E = Q^T Q - I of the basis from orthonormality, plus the Ritz values set to
0.  By Hoffman & Wielandt the returned list then lies within the
certificate of the exact sorted eigenvalues of S in 2-norm, so every value
is within it.  When the numerical rank needs more than LOWRANK_CAP * n
columns (always below order 256, where not even the first LOWRANK_BLOCK =
64 fit), the dense route runs on S materialised from its strips: an
even-order matrix that is centrosymmetric to rounding as two half-size
solves, any other as one ``eigvalsh``, accurate to about
n * eps * max|lambda| as well.

Any other matrix, one symmetric only to rounding too, takes one dense SVD
at every size, and ``sym_eigen`` refuses it with its measured defect.

The operator norm of a symmetric matrix, or of a symmetric linear map given
by its action, is its largest |eigenvalue| from Lanczos with full
reorthogonalisation, so no dense solve is needed for one top value; any
other matrix gives sigma_1 from one SVD.  For a symmetric array A the gate
runs Lanczos on x -> A @ x, so the map handed over for it has A's bits.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import EigenSolverError
from .quadrature import ROW_BLOCK, OperatorMatrix, UpperStrips

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

# A symmetric matrix first tries the low-rank route.  Its basis starts at
# LOWRANK_BLOCK columns and doubles; a basis is only certified when
# LOWRANK_SPARE of its columns lie at the rounding level, and the route gives
# up once more than LOWRANK_CAP * n columns would be needed, so below order
# 256 it never runs.  On the four benchmark families (best of 5, 2 OpenBLAS
# threads) it took, against the dense time on the centrosymmetric ones and
# on the others: 1.60x and 0.96x at n = 256 (R = 6.4; a give-up at rank > 48
# cost 1.15x and 0.64x on top of the dense solve), give-ups at 0.60-0.62x and
# 0.37x at 400 (rank 52-60), 0.90-0.97x and 0.51-0.56x at 800, 0.66-0.71x and
# 0.33-0.36x at 1100, 0.50-0.53x and 0.20-0.21x at 1600, 0.32-0.35x and
# 0.10-0.12x at 2400, 0.24-0.28x and 0.09x at 3200.  Near the cap a
# 512-column solve took 1.59x the centrosymmetric dense time at n = 2400
# (R = 36, rank 241) and 0.82-0.88x at 3200 (R = 48, rank 283-317), against
# 0.25-0.57x and 0.34-0.36x on the others: at n / 4 columns the two routes
# cost about the same.  A matrix of rank 287-531 at order 1600 (the R = 80
# ladder step) gives up after its first 64-column sketch, in 0.013-0.018 s,
# 4-12% of its dense solve; trying 64, 128 and 256 columns before giving up
# took 0.048-0.108 s (15-56%).
LOWRANK_CAP = 0.25
LOWRANK_BLOCK = 64
LOWRANK_SPARE = 16


def _as_array(M) -> np.ndarray:
    if isinstance(M, OperatorMatrix):
        return M.entries
    return np.asarray(M, dtype=float)


def _asymmetry(A: np.ndarray) -> Tuple[float, float]:
    """(max|A - A^T|, max|A|) of a square matrix, the first 0 exactly when
    A == A^T; raises EigenSolverError on a non-finite entry, before any
    arithmetic on it.  The upper triangle is compared in square
    ``ROW_BLOCK`` tiles, A[I, J] against A[J, I]^T, into one tile-sized
    buffer, and max|A| is read from the same tiles, which cover every entry.
    Each transposed tile is read from ``ROW_BLOCK`` rows at a time; whole
    transposed strips A[r0:, r0:r1]^T took 83 ms against 49 ms for the tiles
    at n = 3200."""
    n, asym, amax = A.shape[0], 0.0, 0.0
    buf = np.empty((ROW_BLOCK, ROW_BLOCK))
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        for c0 in range(r0, n, ROW_BLOCK):
            c1 = min(c0 + ROW_BLOCK, n)
            upper, lower = A[r0:r1, c0:c1], A[c0:c1, r0:r1]
            for part in (upper, lower) if c0 > r0 else (upper,):
                top, bottom = float(part.max()), float(part.min())  # NaN propagates
                if not (math.isfinite(top) and math.isfinite(bottom)):
                    raise EigenSolverError("matrix has non-finite entries")
                amax = max(amax, top, -bottom)
            tile = np.subtract(upper, lower.T, out=buf[: r1 - r0, : c1 - c0])
            asym = max(asym, float(np.abs(tile, out=tile).max()))
    return asym, amax


def _symmetric(A: np.ndarray) -> Tuple[float, float]:
    """(max|A - A^T|, max|A|) for an array A, (inf, nan) when A is not
    square: A is symmetric, and taken as it is, exactly when the first is 0.
    The one gate of every array the symmetric route takes; raises
    EigenSolverError on a non-finite entry, of a rectangular A too."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        if A.size and not (np.isfinite(A.min()) and np.isfinite(A.max())):
            raise EigenSolverError("matrix has non-finite entries")
        return math.inf, math.nan
    return _asymmetry(A)


def _scale_for(amax: float) -> float:
    """A power of two s with s * amax in [1/2, 1) (1 for amax = 0): scaling
    a matrix with max|A| = amax by it is exact, and sums of squares of s * A
    cannot overflow."""
    return math.ldexp(1.0, -max(math.frexp(amax)[1], -1000))


def _centro_halves(S: np.ndarray, scale: float):
    """(B' + C'J, B' - C'J) for an even-order symmetric S = [[B, C], [C^T, D]]
    (m x m blocks, J the index reversal), or None when its centrosymmetry
    defect |S - JSJ|_F exceeds CENTRO_TOL * |S|_F.

    B' = 1/2 (B + JDJ) and C' = 1/2 (C + JC^TJ) are the blocks of the
    centrosymmetric part 1/2 (S + JSJ), which maps the even vectors [u; Ju]
    through the first matrix and the odd vectors [u; -Ju] through the second.
    Both norms are taken of ``scale`` * S, ``scale`` = ``_scale_for(max|S|)``,
    so neither overflows.
    """
    n = S.shape[0]
    if n % 2 or n == 0:
        return None
    m = n // 2
    B, JDJ = S[:m, :m], S[m:, m:][::-1, ::-1]
    CJ, JCt = S[:m, m:][:, ::-1], S[m:, :m][::-1, :]
    buf = np.empty((m, m))

    def scaled_sq(X) -> float:
        np.multiply(X, scale, out=buf)
        return float(np.dot(buf.ravel(), buf.ravel()))

    # |S - JSJ|_F^2 = 2 |B - JDJ|_F^2 + 2 |CJ - JC^T|_F^2, from m x m pieces
    defect_sq = scaled_sq(np.subtract(B, JDJ, out=buf)) + scaled_sq(np.subtract(CJ, JCt, out=buf))
    norm_sq = scaled_sq(B) + scaled_sq(JDJ) + scaled_sq(CJ) + scaled_sq(JCt)
    if math.sqrt(2.0 * defect_sq) > CENTRO_TOL * math.sqrt(norm_sq):
        return None
    plus = B + JDJ
    off = np.add(CJ, JCt, out=buf)
    minus = plus - off
    plus += off
    plus *= 0.5
    minus *= 0.5
    return plus, minus


def _start_block(n: int, j0: int, j1: int) -> np.ndarray:
    """Columns j0..j1-1 of a fixed n-row test matrix with entries uniform on
    [-1, 1): SplitMix64 of the entry's column-major index, in integer
    arithmetic, so the block is the same on every platform and run."""
    idx = np.arange(j0, j1, dtype=np.uint64) * np.uint64(n)
    z = (idx[np.newaxis, :] + np.arange(1, n + 1, dtype=np.uint64)[:, np.newaxis]) * np.uint64(
        0x9E3779B97F4A7C15
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0**-52 - 1.0


def _svqb(X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(X V diag(lam)^(-1/2), lam) from the eigenpairs (lam, V) of the Gram
    matrix X^T X, over the eigenvalues above eps * max(lam): orthonormal
    columns spanning the directions of X with singular values above
    sqrt(eps) * |X|_2 (SVQB, Stathopoulos & Wu, SIAM J. Sci. Comput. 23,
    2002).  The Gram product carries rounding errors of about
    eps * |X|_2^2, so two of the columns are orthogonal only to about
    eps * max(lam) / sqrt(lam_i lam_j); a call on a result that is
    orthonormal to within d makes it orthonormal to about eps / (1 - d)."""
    lam, V = np.linalg.eigh(X.T @ X)
    keep = lam > np.finfo(float).eps * np.max(lam, initial=0.0)
    return X @ (V[:, keep] / np.sqrt(lam[keep])), lam


def _range_basis(Y: np.ndarray, tol: float, limit: int) -> Tuple[Optional[np.ndarray], int]:
    """(Q, count): an orthonormal basis Q of the numerical range of Y, and
    the number of singular values of Y above tol * |Y|_2 that it finds; or
    (None, count) when the count is past ``limit``, as soon as level 2's
    singular values give it, before its basis is made orthonormal (the
    caller has no use for a basis too narrow to certify); or (None,
    estimate) as soon as level 1 alone counts more than ``limit``.
    The estimate is level 1's count, or, when level 1 keeps all k columns
    of Y, the index at which the decay of its singular values from sigma_1
    to sigma_(k/2), continued geometrically, reaches tol * sigma_1.  The
    first k/2 values of a k-column sketch follow those of the matrix (k/2
    columns of oversampling); the last few fall below them, so a decay
    read up to sigma_k puts the rank too low (359 for 480 at k = 64 on the
    R = 80 ladder step, against 504 read up to sigma_(k/2)).

    Two levels of ``_svqb``.  Level 1 keeps the directions of Y above
    sqrt(eps) * |Y|_2.  Level 2 takes the remainder Z = (I - Q1 Q1^T) Y,
    projected twice, whose norm is about that size, and keeps its
    directions above sqrt(eps) * |Z|_2, about eps * |Y|_2, where the
    rounding noise of Z begins.  At each level two more passes, each after
    projecting off Q1 at level 2, make the columns orthonormal to rounding
    (one more pass is not enough where the first leaves two columns
    orthogonal only to O(1)).  Q1 Q1^T Y has rank m1, so
    sigma_(m1 + j)(Y) <= sigma_j(Z) (Weyl): the count, m1 plus the singular
    values of Z above tol * |Y|_2, is never below the numerical rank of Y.
    """
    Q1, lam = _svqb(Y)
    if Q1.shape[1] > limit:
        n, k = Y.shape
        if Q1.shape[1] < k:
            return None, Q1.shape[1]
        # log(sigma_j / sigma_1) at j = k / 2, where the sketch still follows A
        j = k // 2
        decay = 0.5 * math.log(lam[-j] / lam[-1])
        return None, n if decay == 0.0 else math.ceil(1 + (j - 1) * math.log(tol) / decay)
    for _ in range(2):
        Q1 = _svqb(Q1)[0]
    Z = Y - Q1 @ (Q1.T @ Y)
    Z -= Q1 @ (Q1.T @ Z)
    Q2, lam_z = _svqb(Z)
    count = Q1.shape[1] + int(np.count_nonzero(lam_z > tol * tol * np.max(lam, initial=0.0)))
    if count > limit:
        return None, count
    # Z has rank k - m1 at most: the columns past that are rounding noise
    Q2 = Q2[:, max(0, Q2.shape[1] - (Y.shape[1] - Q1.shape[1])) :]
    for _ in range(2):
        Q2 -= Q1 @ (Q1.T @ Q2)
        Q2 = _svqb(Q2)[0]
    return np.hstack([Q1, Q2]), count


def _lowrank_eigvalsh(P: UpperStrips, scale: float) -> Optional[Tuple[np.ndarray, float]]:
    """(ascending eigenvalues, certificate) of the symmetric matrix S that
    the upper strips ``P`` hold, from a certified low-rank factorisation; or
    None when a basis of more than LOWRANK_CAP * n columns would be needed.

    The range finder (Halko, Martinsson & Tropp, SIAM Review 53, 2011,
    sections 4.4-4.5) takes Y = S Omega for the first k = LOWRANK_BLOCK,
    2 LOWRANK_BLOCK, ... columns Omega of the fixed test matrix
    ``_start_block``, and ``_range_basis`` gives an orthonormal basis Q of
    its numerical range with m <= k columns.  Unless at most
    k - LOWRANK_SPARE singular values of Y lie above tol * |Y|_2
    (tol = n * eps), the basis cannot hold the numerical range with room to
    spare and k doubles.  When that count, or level 1's estimate of it (see
    ``_range_basis``), is past what the widest k within LOWRANK_CAP * n can
    hold, the route gives up at once.  Every product with S is the strip
    product of :class:`UpperStrips`.

    Otherwise T = Q^T S Q with Ritz values theta.  The residual
    r = |S - X|_F, X = Q T Q^T, is summed over the strips, each formed in
    place: a strip's diagonal block counts once and its part right of the
    block twice, for its mirror image in the lower triangle, so r takes
    half the flops of whole rows.  Q is orthonormal only to rounding: with
    G = Q^T Q = I + E, the nonzero eigenvalues of X are those of
    G^(1/2) T G^(1/2) (the nonzero spectra of XY and YX agree).
    F = G^(1/2) - I shares the eigenvectors of E, and |sqrt(1 + e) - 1| <= |e|
    for e >= -1, so |F|_F <= |E|_F and G^(1/2) T G^(1/2) - T = F T + T F + F T F
    has Frobenius norm at most o = |T|_2 |E|_F (2 + |E|_F).  By Hoffman &
    Wielandt (Duke Math. J. 20, 1953), applied to S against X and to
    diag(G^(1/2) T G^(1/2), 0) against diag(T, 0), the list theta padded
    with n - m zeros differs from the sorted eigenvalues of S by at most
    r + o in 2-norm.  The Ritz values at or below r are set to 0, which adds
    their 2-norm: that sum is the certificate.  It is accepted at
    tol * max|theta|, the absolute accuracy of a dense solve; if not, k
    doubles.

    Every product with S takes its thin factor scaled by ``scale``, which
    is ``_scale_for(max|S|)`` (a power of two, so exactly), so the work is
    on S / max|S|, and each residual strip is scaled the same way before
    its squares are summed: the certificate cannot overflow.  No random
    state is read: two calls give the same bits.
    """
    n = P.n
    if LOWRANK_BLOCK > LOWRANK_CAP * n:
        return None
    tol = n * np.finfo(float).eps
    # the widest basis the doubling reaches within the cap
    k_max = LOWRANK_BLOCK << int(math.log2(LOWRANK_CAP * n / LOWRANK_BLOCK))
    Y, k = np.empty((n, 0)), 0
    while k < k_max:
        k_new = max(LOWRANK_BLOCK, 2 * k)
        Y = np.hstack([Y, P @ (_start_block(n, k, k_new) * scale)])
        k = k_new
        Q, count = _range_basis(Y, tol, k - LOWRANK_SPARE)
        if count > k_max - LOWRANK_SPARE:
            return None
        if count > k - LOWRANK_SPARE:
            continue
        T = Q.T @ (P @ (Q * scale))
        T = 0.5 * (T + T.T)
        theta = np.linalg.eigvalsh(T)
        top = float(np.abs(theta).max(initial=0.0))
        # each strip of X is formed in S's units, so that the strip is
        # subtracted in place, and scaled back before its squares are summed:
        # |diagonal block|^2 + 2 |right part|^2 = 2 |strip|^2 - |diagonal block|^2.
        # |W / scale| is at most max|theta| / scale to rounding (Q's rows have
        # norm <= 1), so it overflows only with eigenvalues past the largest double
        if math.isinf(top / scale):
            raise EigenSolverError("matrix has eigenvalues past the largest double")
        W = T @ Q.T
        W /= scale
        resid_sq = 0.0
        for r0, r1, strip in P.row_strips():
            diff = Q[r0:r1] @ W[:, r0:]
            diff -= strip
            diff *= scale
            corner, flat = diff[:, : r1 - r0].ravel(), diff.ravel()
            resid_sq += 2.0 * float(flat @ flat) - float(corner @ corner)
        resid = math.sqrt(resid_sq)
        orth = float(np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])))
        small = np.abs(theta) <= resid
        certificate = resid + top * orth * (2.0 + orth) + float(np.linalg.norm(theta[small]))
        theta[small] = 0.0
        if certificate <= tol * top:
            values = np.concatenate([theta, np.zeros(n - theta.size)])
            values.sort()
            return values / scale, certificate / scale
    return None


def _dense_eigvalsh(P: UpperStrips, scale: float) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix S that the upper strips
    ``P`` hold, with ``scale`` = ``_scale_for(max|S|)``, materialised from
    its strips: two half-size solves when it is centrosymmetric to
    rounding, one ``eigvalsh`` else."""
    # bound to a name: handing the temporary straight to eigvalsh measured a
    # 10 MB higher peak RSS on the benchmark's spectrum workload (N up to 3200)
    S = P.dense()
    halves = _centro_halves(S, scale)
    if halves is None:
        return np.linalg.eigvalsh(S)
    del S  # only the two halves stay alive through their solves
    plus, minus = halves
    return np.sort(np.concatenate([np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)]))


def _sym_eigvalsh(P: UpperStrips) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix that the upper strips
    ``P`` hold: the certified low-rank route, or the dense route when that
    gives up, both on one power-of-two scale."""
    scale = _scale_for(P.amax)
    try:
        found = _lowrank_eigvalsh(P, scale)
        values = found[0] if found is not None else _dense_eigvalsh(P, scale)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failed to converge: {exc}") from exc
    if not np.isfinite(values).all():
        raise EigenSolverError("matrix has eigenvalues past the largest double")
    return values


def _svdvals(A: np.ndarray) -> np.ndarray:
    """Descending singular values of a matrix from one dense SVD."""
    if A.ndim != 2:
        raise EigenSolverError(f"expected a matrix, got ndim={A.ndim}")
    try:
        return np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"singular-value solver failed to converge: {exc}") from exc


def sym_eigen(M) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, given as an array, an
    :class:`OperatorMatrix` or the packed :class:`UpperStrips`.

    An array must be finite and exactly symmetric, M == M^T; any other
    raises EigenSolverError with its measured defect max|M - M^T| / max|M|.
    The packed form is exactly symmetric and finite as its maker vouches
    (see :class:`UpperStrips`), and is not scanned.  An eigenvalue past the
    largest double raises EigenSolverError.
    From order 256 on they may come from the certified low-rank route (see
    the module docstring and ``_lowrank_eigvalsh``): every value lies within
    n * eps * max|lambda| of the exact one, and the values outside the
    numerical range are exactly 0.  Otherwise an even-order S that is
    centrosymmetric to rounding (JSJ = S with J the index reversal, as the
    suite's inversion-symmetric operators are on the midpoint log grid),
    |S - JSJ|_F <= CENTRO_TOL * |S|_F, is solved as the two half-size
    matrices B +- CJ of 1/2 (S + JSJ) (Cantoni & Butler, Linear Algebra
    Appl. 13, 1976), at about a quarter of the flops.  By Weyl's inequality
    that moves each eigenvalue by at most 1/2 |S - JSJ|_2 <= 1/2 CENTRO_TOL
    |S|_F; every other matrix takes one ``eigvalsh``.
    """
    if not isinstance(M, UpperStrips):
        M = _as_array(M)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise EigenSolverError(f"expected a square matrix, got shape {M.shape}")
        asym, amax = _symmetric(M)
        if asym:
            raise EigenSolverError(f"matrix not symmetric: max|M - M^T| = {asym / amax:.3e} max|M|")
        M = UpperStrips.of(M, amax)
    return _sym_eigvalsh(M)


def singular_values(M) -> np.ndarray:
    """Descending singular values of a matrix, given as an array, an
    :class:`OperatorMatrix` or the packed :class:`UpperStrips`: the sorted
    |eigenvalues| of a symmetric one, from one SVD for any other.

    An array is scanned once: a non-finite entry raises EigenSolverError,
    and it is symmetric exactly when M == M^T.  The packed form is exactly
    symmetric and finite as its maker vouches (see :class:`UpperStrips`),
    and is not scanned.
    """
    if not isinstance(M, UpperStrips):
        A = _as_array(M)
        asym, amax = _symmetric(A)
        if asym:
            return _svdvals(A)
        M = UpperStrips.of(A, amax)
    return np.sort(np.abs(_sym_eigvalsh(M)))[::-1]


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
    on R^n when ``M`` is a callable, which needs ``n``.

    A symmetric matrix or map gives its largest |eigenvalue| by Lanczos; any
    other matrix sigma_1 from one SVD.  An array is scanned once (see
    ``sym_eigen``); a map is not, and a product that is not finite raises
    EigenSolverError at its Lanczos step.
    """
    if callable(M):
        if n is None:
            raise TypeError("op_norm of a callable needs the dimension n of its domain")
        return _lanczos_top(M, n)
    A = _as_array(M)
    if not _symmetric(A)[0]:
        return _lanczos_top(lambda x: A @ x, A.shape[0])
    sv = _svdvals(A)
    return float(sv[0]) if sv.size else 0.0


def frobenius_norm(M) -> float:
    """Hilbert-Schmidt norm, from the entries."""
    A = _as_array(M)
    return float(np.sqrt((A * A).sum()))


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    return float(singular_values(M).sum())
