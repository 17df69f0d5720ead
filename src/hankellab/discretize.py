"""Assembly of every operator expression used by the verification suite:
the model operators, weighted Hankel operators, block compositions, and the
log-variable pushforwards.

The half-line projections onto (0, 1) and (1, inf) are the two halves of
the grid (:meth:`Grid.side`): a block of an assembled matrix is a slice of
its entries, and this module takes the sides of the widened factor and of
the pushforwards by the same slices.

Compositions of operators (squares, products through a projection, and
Hilbert-Schmidt norms of u L) discretise the inner integration variable on a
widened grid (double log-width, same step): a product over the truncated grid
only represents the composition restricted to the truncation window, whose
deviation from the full-line composition does not vanish under refinement.

The widened factor's entries depend on i + j alone (t_i tau_j = e^(x_i + y_j)
on one step h), so it is a view of 3N - 1 values.  A and L stay
entrywise: C2 and C5 test structure (inversion symmetry, the log-variable
Hankel form) that a gather would impose by construction.

The verification suite builds no N x 2N factor and no H(phi_inf) matrix.
The widened square (:func:`operator_square`), each side's block and each
diagonal quarter of a block (:func:`composed_block`) are Gram matrices of
Hankel matrices, so they are built in O(N^2) from the factor's values by
the displacement recurrence of :func:`_gram_rows`, each with no other
N x N array and no N^3 product; :func:`subtract_composed_block` takes a
block's rows from the same recurrence off an array in place, with O(N)
memory, and :func:`phi0_and_split_defect` gives H(phi0) with the split
defect from one tile walk.  A verify step holds about 2.25 N^2 doubles at
its peak, tiles and quarter-size buffers included (see ``verify``).
``spectrum`` takes its weighted Hankel matrix from
:func:`assemble_wHa_strips`, as the packed upper row strips of
``quadrature.UpperStrips``, and never builds it as an N x N array.
``assemble_uL`` and ``assemble_model_split`` are not called by the
program; they stay because the acceptance tests (tests/test_acceptance.py)
import them.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .kernels import KernelSpec, WeightSpec, kernel_A, kernel_L, weighted_hankel_kernel
from .quadrature import (
    Grid,
    OperatorMatrix,
    UpperStrips,
    _evaluate_kernel,
    _nystrom_tiles,
    _store_tile,
    _upper_tiles,
    make_grid,
    nystrom,
    nystrom_strips,
)
from .specfun import check_alpha, ln_gamma, phi_split, psi_minus, psi_plus

__all__ = [
    "assemble_A",
    "assemble_L",
    "assemble_wHa",
    "assemble_wHa_strips",
    "widened_grid",
    "assemble_L_rect",
    "operator_square",
    "composed_block",
    "subtract_composed_block",
    "assemble_uL",
    "assemble_model_split",
    "phi0_and_split_defect",
    "log_pushforward_hankel",
    "change_of_variables_diagonal",
]

WIDE_FACTOR = 2


def assemble_A(alpha, grid: Grid) -> OperatorMatrix:
    """Nystrom matrix of the model kernel s^a t^a (s+t)^(-1-2a)."""
    a = check_alpha(alpha)
    return nystrom(kernel_A(a), grid, provenance=f"A(alpha={a})")


def assemble_L(alpha, grid: Grid) -> OperatorMatrix:
    """Nystrom matrix of the factor kernel t^a s^a e^(-st)/sqrt(Gamma(1+2a))."""
    a = check_alpha(alpha)
    return nystrom(kernel_L(a), grid, provenance=f"L(alpha={a})")


def assemble_wHa(a: KernelSpec, w: WeightSpec, grid: Grid) -> OperatorMatrix:
    """Nystrom matrix of the weighted Hankel kernel w(t) a(t+s) w(s)."""
    K = weighted_hankel_kernel(a, w)
    return nystrom(K, grid, provenance=f"wHa(alpha={a.alpha})")


def assemble_wHa_strips(a: KernelSpec, w: WeightSpec, grid: Grid) -> UpperStrips:
    """The matrix of :func:`assemble_wHa` as its upper row strips, with the
    same bits and no full N x N array (``spectrum`` needs only its
    eigenvalues)."""
    K = weighted_hankel_kernel(a, w)
    return nystrom_strips(K, grid, provenance=f"wHa(alpha={a.alpha})")


def widened_grid(grid: Grid) -> Grid:
    """Grid with ``WIDE_FACTOR`` times the log-width at the same step."""
    return make_grid(WIDE_FACTOR * grid.R, WIDE_FACTOR * grid.N)


def assemble_L_rect(alpha, grid: Grid) -> OperatorMatrix:
    """Rectangular factor matrix: rows on ``grid``, columns on the widened
    grid, as a read-only N x 2N sliding-window view of its 3N - 1
    antidiagonal values (row i is values[i : i + 2N]): the kernel on the
    first row and the last column (the node pairs of
    :func:`log_pushforward_hankel`) times sqrt(w_i om_j).  Each entry is the
    kernel at a node pair with the same t_i tau_j, so it agrees with the
    entrywise evaluation to the rounding of the nodes.  Values below the
    smallest normal number are stored as 0: subnormals slow every product."""
    a = check_alpha(alpha)
    K, wide = kernel_L(a), widened_grid(grid)
    t, w, tau, om = grid.nodes, grid.weights, wide.nodes, wide.weights
    first = _evaluate_kernel(K, t[:1, np.newaxis], tau[np.newaxis, :])[0] * np.sqrt(w[0] * om)
    last = _evaluate_kernel(K, t[1:, np.newaxis], tau[np.newaxis, -1:])[:, 0]
    values = np.concatenate([first, last * np.sqrt(w[1:] * om[-1])])
    values[np.abs(values) < np.finfo(float).tiny] = 0.0
    entries = np.lib.stride_tricks.sliding_window_view(values, wide.N)
    return OperatorMatrix(grid, entries, f"L_rect(alpha={a})", col_grid=wide)


def _hankel_values(E: np.ndarray) -> np.ndarray:
    """The n + m - 1 values h of an n x m Hankel matrix E (E_ij = h_(i+j)):
    its first row and its last column."""
    return np.concatenate([E[0], E[1:, -1]])


def _gram_rows(h: np.ndarray, n: int, store: np.ndarray):
    """The rows of the Gram matrix G = H H^T of the n x m Hankel matrix
    H_ij = h_(i+j), m = len(h) - n + 1, from its values alone: no H and no
    O(n^2 m) product.  Row i is formed and yielded in ``store[i % k]``,
    ``store`` k >= 2 rows of length n, and lives until row i + k is formed.

    G_ik = sum_j h_(i+j) h_(k+j) has displacement rank 2:
    G_(i+1,k+1) = G_ik - h_i h_k + h_(i+m) h_(k+m) (Kailath & Sayed, SIAM
    Rev. 37, 1995).  Row 0 is one correlation of h with its first m values;
    each later row comes from the row above in O(n), formed in that order,
    and its entry 0 is a copy of row 0's entry.  h_i h_k == h_k h_i, so by
    induction G is exactly symmetric.  O(n m + n^2) flops.

    Rounding, with M = max|G| = max_i G_ii (a Gram matrix) and u = eps / 2:
    |h_i h_k| <= sqrt(G_ii G_kk) <= M, and so are h_(i+m) h_(k+m) and the
    partial sum G_ik - h_i h_k (Cauchy-Schwarz), so each step adds at most
    4 u M to the error of the entry it comes from, and a chain has at most
    n - 1 steps.  Row 0 is within m u M (a dot product of length m whose
    terms sum in modulus to at most M).  So |G - H H^T| <= (m / 2 + 2 n) eps M
    to first order; a GEMM of H is within (m / 2) eps M of it, so the two
    differ by at most (m + 2 n) eps M.  Measured: at most 46 eps M at
    orders 800-3200, alpha in [-0.25, 2]."""
    m, k = len(h) - n + 1, len(store)
    row0 = np.correlate(h, h[:m], "valid")
    store[0] = row0
    yield store[0]
    first, last, term = h[: n - 1], h[m : m + n - 1], np.empty(n - 1)
    for i in range(n - 1):
        above, row = store[i % k], store[(i + 1) % k]
        row[0] = row0[i + 1]
        np.multiply(first, h[i], out=term)
        np.subtract(above[:-1], term, out=row[1:])
        np.multiply(last, h[i + m], out=term)
        row[1:] += term
        yield row


def _hankel_gram(h: np.ndarray, n: int) -> np.ndarray:
    """The Gram matrix of :func:`_gram_rows`, each row formed in its own row."""
    G = np.empty((n, n))
    for _ in _gram_rows(h, n, G):
        pass
    return G


def operator_square(Lr: OperatorMatrix) -> OperatorMatrix:
    """Quadrature approximation of the operator square of the factor operator:
    Lr Lr^T for the widened factor ``Lr`` of :func:`assemble_L_rect`, an
    N x 2N Hankel matrix, by the recurrence of :func:`_gram_rows` from its
    3N - 1 values.

    The inner integral runs over the widened grid, so the result converges to
    the model matrix under refinement.
    """
    G = _hankel_gram(_hankel_values(Lr.entries), Lr.grid.N)
    return OperatorMatrix(grid=Lr.grid, entries=G, provenance=f"{Lr.provenance}^2")


def composed_block(
    Lr: OperatorMatrix, inner_side: str, outer_side: Optional[str] = None
) -> OperatorMatrix:
    """L * (indicator of one side of 1) * L on the row grid from the widened
    factor ``Lr``: C C^T, C the N x N Hankel matrix of the columns of ``Lr``
    on that side of 1 (the half ``Lr.col_grid.side(inner_side)``), by the
    recurrence of :func:`_gram_rows` from C's 2N - 1 values.  The two
    sides' blocks sum to :func:`operator_square` up to rounding.

    With ``outer_side`` only the block's diagonal quarter on that side of 1
    is composed: the Gram matrix of C's N/2 rows on that side, itself a
    Hankel matrix of N/2 + N - 1 of the values, at a quarter of the whole
    block's flops (the result keeps the row grid ``Lr.grid`` as its grid).
    Each result is exactly symmetric.  The quarter on the zero side is the
    same chain as the whole block's first N/2 rows, so it has their bits;
    the other starts its chain at row N/2 and differs by rounding."""
    c = _hankel_values(Lr.entries[:, Lr.col_grid.side(inner_side)])
    rows = Lr.grid.side(outer_side) if outer_side is not None else slice(0, Lr.grid.N)
    n = rows.stop - rows.start
    provenance = f"{Lr.provenance}*1_{inner_side}*L"
    if outer_side is not None:
        provenance = f"({provenance})_{outer_side}"
    G = _hankel_gram(c[rows.start : rows.stop + Lr.grid.N - 1], n)
    return OperatorMatrix(grid=Lr.grid, entries=G, provenance=provenance)


def subtract_composed_block(M: np.ndarray, Lr: OperatorMatrix, inner_side: str) -> None:
    """M -= :func:`composed_block` (Lr, inner_side), in place and row by row
    from the rows of :func:`_gram_rows`, for a writable N x N array ``M``:
    the bits of ``M - composed_block(Lr, inner_side).entries`` with O(N)
    memory and no block.  Both are exactly symmetric when ``M`` is, since
    m_ik - g_ik and m_ki - g_ki have the same operands."""
    c = _hankel_values(Lr.entries[:, Lr.col_grid.side(inner_side)])
    for i, row in enumerate(_gram_rows(c, Lr.grid.N, np.empty((2, Lr.grid.N)))):
        M[i] -= row


def assemble_uL(u: Callable, Lr: OperatorMatrix) -> OperatorMatrix:
    """Rectangular discretisation of the operator u L (u a multiplication
    operator given as a function of t) from the widened factor ``Lr``; used
    for Hilbert-Schmidt diagnostics."""
    uvals = np.asarray(u(Lr.grid.nodes), dtype=float)
    entries = uvals[:, np.newaxis] * Lr.entries
    return OperatorMatrix(
        grid=Lr.grid, entries=entries, provenance=f"u*{Lr.provenance}", col_grid=Lr.col_grid
    )


def _split_kernels(a: float) -> Callable:
    """The tile kernels (phi0, phi_inf) of the model split for the tile
    walk of :func:`quadrature._upper_tiles`: both from one incomplete-Gamma
    evaluation on the node sums of each tile."""

    def tile_kernels(s, t):
        # the incomplete-Gamma evaluation, the walk's largest, comes first
        phis = phi_split(a, s + t)
        st = s**a * t**a
        # the walk calls each kernel on exactly this node column and row
        return tuple(lambda s, t, phi=phi: st * phi for phi in phis)

    return tile_kernels


def assemble_model_split(alpha, grid: Grid) -> Tuple[OperatorMatrix, OperatorMatrix]:
    """Nystrom matrices (H(phi0), H(phi_inf)) of t^a phi(t+s) s^a.

    The two sum to the model matrix entrywise (the kernels split t^(-1-2a)
    exactly), and H(phi0) is the widened composition L * 1_infinity * L in
    the continuum limit.  Both come from the walk of
    :func:`phi0_and_split_defect`.
    """
    a = check_alpha(alpha)
    return _nystrom_tiles(
        _split_kernels(a), grid, (f"H(phi0,alpha={a})", f"H(phi_inf,alpha={a})")
    )


def phi0_and_split_defect(alpha, grid: Grid, A: np.ndarray) -> Tuple[np.ndarray, float]:
    """(H(phi0), max|H(phi0) + H(phi_inf) - A|) for an exactly symmetric
    ``A``, with no H(phi_inf) matrix: the entries of H(phi0), as a writable
    array, and the split defect, both from one walk of the upper triangle in
    the tiles of :func:`assemble_model_split`.  Each tile of the defect is
    formed as (h0 + h_inf) - a, so it has the bits of the whole-matrix
    difference of ``assemble_model_split``'s pair; all three matrices are
    symmetric, so its largest entry is in the upper triangle.  No temporary
    is larger than a tile, whatever N."""
    a = check_alpha(alpha)
    H0, defect = np.empty((grid.N, grid.N)), 0.0
    for rows, cols, (h0, h_inf) in _upper_tiles(_split_kernels(a), grid):
        _store_tile(H0, rows, cols, h0)
        h_inf += h0
        h_inf -= A[rows, cols]
        defect = max(defect, float(np.abs(h_inf).max()))
        del h0, h_inf  # dropped before the walk evaluates the next tile
    return H0, defect


def log_pushforward_hankel(side: str, alpha, grid: Grid) -> OperatorMatrix:
    """Hankel matrix of the pushforward of a diagonal block to the log scale.

    The nodes t_i on the chosen side of 1 map to a uniform midpoint grid
    x in (0, R); the kernel is psi_+(x+y) (side 'infinity') or psi_-(x+y)
    (side 'zero'), scaled by 1/sqrt(Gamma(1+2 alpha)) to match the factor
    operator's normalisation, with uniform weights h.  The entries are a
    read-only sliding-window view of the 2n - 1 antidiagonal values.
    """
    a = check_alpha(alpha)
    xs = grid.log_nodes[grid.side(side)]
    if side == "infinity":
        psi = lambda u: psi_plus(a, u)
    else:
        xs = -xs[::-1]  # ascending in x = -ln t
        psi = lambda u: psi_minus(a, u)
    c = np.exp(-0.5 * ln_gamma(1.0 + 2.0 * a))
    # the 2n - 1 antidiagonal values x_0 + x_k and x_k + x_{n-1}; row i of
    # the Hankel matrix is values[i : i + n]
    sums = np.concatenate([xs[0] + xs, xs[1:] + xs[-1]])
    values = grid.step * c * psi(sums)
    entries = np.lib.stride_tricks.sliding_window_view(values, len(xs))
    return OperatorMatrix(grid=grid, entries=entries, provenance=f"H(psi,{side},alpha={a})")


def change_of_variables_diagonal(grid: Grid, side: str) -> np.ndarray:
    """Explicit diagonal of the log-scale change of variables combined with
    the Nystrom sqrt-weights: d_i = sqrt(h) e^{x_i/2} / sqrt(w_i) with the
    signed log node x_i (both pushforward unitaries carry the factor
    e^{x_i/2} = sqrt(t_i)), in the ascending order of the pushforward
    variable used by :func:`log_pushforward_hankel`.

    On the midpoint log grid this evaluates to 1 up to rounding; it is
    constructed from grid data (never assumed) so the suite can compare
    "transform then discretise" against "discretise then transform".
    """
    half = grid.side(side)
    w = grid.weights[half]
    x = grid.log_nodes[half]
    d = np.sqrt(grid.step) * np.exp(x / 2.0) / np.sqrt(w)
    if side == "zero":
        d = d[::-1]
    return d
