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
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .kernels import KernelSpec, WeightSpec, kernel_A, kernel_L, weighted_hankel_kernel
from .quadrature import Grid, OperatorMatrix, _nystrom_strips, make_grid, nystrom, nystrom_rect
from .specfun import check_alpha, ln_gamma, phi_split, psi_minus, psi_plus

__all__ = [
    "assemble_A",
    "assemble_L",
    "assemble_wHa",
    "widened_grid",
    "assemble_L_rect",
    "operator_square",
    "composed_block",
    "assemble_uL",
    "assemble_model_split",
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


def widened_grid(grid: Grid) -> Grid:
    """Grid with ``WIDE_FACTOR`` times the log-width at the same step."""
    return make_grid(WIDE_FACTOR * grid.R, WIDE_FACTOR * grid.N)


def assemble_L_rect(alpha, grid: Grid) -> OperatorMatrix:
    """Rectangular factor matrix: rows on ``grid``, columns on the widened grid."""
    a = check_alpha(alpha)
    return nystrom_rect(kernel_L(a), grid, widened_grid(grid), provenance=f"L_rect(alpha={a})")


def operator_square(Lr: OperatorMatrix) -> OperatorMatrix:
    """Quadrature approximation of the operator square of the factor operator
    from the widened factor ``Lr`` of :func:`assemble_L_rect`.

    The inner integral runs over the widened grid, so the result converges to
    the model matrix under refinement.
    """
    entries = Lr.entries @ Lr.entries.T
    return OperatorMatrix(grid=Lr.grid, entries=entries, provenance=f"{Lr.provenance}^2")


def composed_block(Lr: OperatorMatrix, inner_side: str) -> OperatorMatrix:
    """L * (indicator of one side of 1) * L from the widened factor ``Lr``:
    C C^T with C the columns of ``Lr`` on that side of 1, the half
    ``Lr.col_grid.side(inner_side)`` of the widened grid; full-size matrix
    on the row grid."""
    C = Lr.entries[:, Lr.col_grid.side(inner_side)]
    entries = C @ C.T
    provenance = f"{Lr.provenance}*1_{inner_side}*L"
    return OperatorMatrix(grid=Lr.grid, entries=entries, provenance=provenance)


def assemble_uL(u: Callable, Lr: OperatorMatrix) -> OperatorMatrix:
    """Rectangular discretisation of the operator u L (u a multiplication
    operator given as a function of t) from the widened factor ``Lr``; used
    for Hilbert-Schmidt diagnostics."""
    uvals = np.asarray(u(Lr.grid.nodes), dtype=float)
    entries = uvals[:, np.newaxis] * Lr.entries
    return OperatorMatrix(
        grid=Lr.grid, entries=entries, provenance=f"u*{Lr.provenance}", col_grid=Lr.col_grid
    )


def assemble_model_split(alpha, grid: Grid) -> Tuple[OperatorMatrix, OperatorMatrix]:
    """Nystrom matrices (H(phi0), H(phi_inf)) of t^a phi(t+s) s^a.

    The two sum to the model matrix entrywise (the kernels split t^(-1-2a)
    exactly), and H(phi0) is the widened composition L * 1_infinity * L in
    the continuum limit.  Both come from one incomplete-Gamma evaluation on
    the node sums of each strip of the shared upper-triangle walk.
    """
    a = check_alpha(alpha)

    def strip_kernels(s, t):
        st = s**a * t**a
        phis = phi_split(a, s + t)
        # _nystrom_strips calls each kernel on exactly this node column and row
        return tuple(lambda s, t, phi=phi: st * phi for phi in phis)

    return _nystrom_strips(
        strip_kernels, grid, (f"H(phi0,alpha={a})", f"H(phi_inf,alpha={a})")
    )


def log_pushforward_hankel(side: str, alpha, grid: Grid) -> OperatorMatrix:
    """Hankel matrix of the pushforward of a diagonal block to the log scale.

    The nodes t_i on the chosen side of 1 map to a uniform midpoint grid
    x in (0, R); the kernel is psi_+(x+y) (side 'infinity') or psi_-(x+y)
    (side 'zero'), scaled by 1/sqrt(Gamma(1+2 alpha)) to match the factor
    operator's normalisation, with uniform weights h.
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
    entries = np.lib.stride_tricks.sliding_window_view(values, len(xs)).copy()
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
