"""Logarithmic midpoint grids on truncations of the half-line and symmetric
Nystrom discretisation of integral operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridError, KernelEvaluationError, QuadratureError

__all__ = ["Grid", "OperatorMatrix", "make_grid", "nystrom", "nystrom_rect", "quad_integral"]


@dataclass(frozen=True)
class Grid:
    """Midpoint log grid on [e^-R, e^R].

    Nodes are t_i = exp(x_i) with x_i = -R + (i - 1/2) h, h = 2R/N, so no node
    sits at t = 1, nodes come in exact reciprocal pairs t_i * t_{N+1-i} = 1,
    and exactly N/2 nodes lie on each side of 1.  Weights h * t_i are the
    Jacobian of t = e^x.  Immutable after construction.
    """

    R: float
    N: int
    nodes: np.ndarray
    weights: np.ndarray
    log_nodes: np.ndarray
    step: float

    @property
    def half(self) -> int:
        return self.N // 2


def make_grid(R: float, N: int) -> Grid:
    """Build the midpoint log grid; N must be even (the split at t = 1 needs
    a midpoint-free symmetric grid)."""
    R = float(R)
    if not R > 0.0:
        raise GridError(f"R must be positive, got {R}")
    if N != int(N) or int(N) < 2 or int(N) % 2 != 0:
        raise GridError(f"N must be an even integer >= 2, got {N}")
    N = int(N)
    h = 2.0 * R / N
    x_low = -R + (np.arange(N // 2) + 0.5) * h
    x = np.concatenate([x_low, -x_low[::-1]])
    t_low = np.exp(x_low)
    # mirror by exact reciprocals so t_i * t_{N+1-i} == 1 in floating point
    t = np.concatenate([t_low, 1.0 / t_low[::-1]])
    w = h * t
    for arr in (x, t, w):
        arr.flags.writeable = False
    return Grid(R=R, N=N, nodes=t, weights=w, log_nodes=x, step=h)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense Nystrom matrix tagged with its grid(s) and provenance.

    Square matrices discretise self-adjoint operators on ``grid``; rectangular
    ones carry a distinct ``col_grid`` (used when an inner integration runs on
    a wider grid).  Equality and hashing are by identity.
    """

    grid: Grid
    entries: np.ndarray
    provenance: str
    col_grid: Optional[Grid] = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if not np.isfinite(e).all():
            raise KernelEvaluationError(f"non-finite entries in {self.provenance!r}")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def shape(self):
        return self.entries.shape

    def is_square(self) -> bool:
        return self.entries.shape[0] == self.entries.shape[1]


def _evaluate_kernel(K, s, t):
    """K on every pair of the node column ``s`` (n x 1) and row ``t`` (1 x m)."""
    try:
        vals = np.asarray(K(s, t), dtype=float)
    except Exception as exc:
        raise KernelEvaluationError(f"kernel evaluation raised on the node arrays: {exc}") from exc
    shape = (s.shape[0], t.shape[1])
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape).copy()
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise KernelEvaluationError(
            f"kernel evaluation not finite at (s, t) = ({s[i, 0]!r}, {t[0, j]!r})",
            s=float(s[i, 0]),
            t=float(t[0, j]),
        )
    return vals


def nystrom(K: Callable, grid: Grid, provenance: str = "kernel") -> OperatorMatrix:
    """Symmetric Nystrom matrix sqrt(w_i w_j) K(t_i, t_j).

    The kernel is called once on the node column and row, broadcasting to the
    full N x N square of node pairs; the upper triangle is then mirrored onto
    the lower, so the result is symmetric exactly.  The sqrt-weight scaling
    keeps the matrix similar to the plain quadrature discretisation.
    """
    vals = _evaluate_kernel(K, grid.nodes[:, np.newaxis], grid.nodes[np.newaxis, :])
    vals *= np.sqrt(np.outer(grid.weights, grid.weights))
    upper = np.triu(vals)
    entries = upper + np.triu(vals, 1).T
    return OperatorMatrix(grid=grid, entries=entries, provenance=provenance)


def nystrom_rect(K: Callable, row_grid: Grid, col_grid: Grid, provenance: str = "kernel") -> OperatorMatrix:
    """Rectangular Nystrom matrix sqrt(w_i om_j) K(t_i, tau_j) across two grids."""
    vals = _evaluate_kernel(K, row_grid.nodes[:, np.newaxis], col_grid.nodes[np.newaxis, :])
    vals *= np.sqrt(np.outer(row_grid.weights, col_grid.weights))
    return OperatorMatrix(grid=row_grid, entries=vals, provenance=provenance, col_grid=col_grid)


def quad_integral(f: Callable, grid: Grid) -> float:
    """Midpoint-in-log approximation of int f(t) dt over [e^-R, e^R].

    ``f`` is called once on the node array; if it raises, so does this, with
    a :class:`QuadratureError` chained to its exception.
    """
    try:
        vals = np.asarray(f(grid.nodes), dtype=float)
        if vals.shape != grid.nodes.shape:
            vals = np.broadcast_to(vals, grid.nodes.shape)
    except Exception as exc:
        raise QuadratureError(f"integrand evaluation raised on the node array: {exc}") from exc
    return float(np.dot(grid.weights, vals))
