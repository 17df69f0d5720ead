"""Logarithmic midpoint grids on truncations of the half-line and symmetric
Nystrom discretisation of integral operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import GridError, KernelEvaluationError, QuadratureError

__all__ = ["Grid", "OperatorMatrix", "make_grid", "nystrom", "nystrom_rect", "quad_integral"]

# Rows per strip of the Nystrom assemblies and of the symmetry test in
# linalg: temporaries stay at ROW_BLOCK rows of the output.
ROW_BLOCK = 128


@dataclass(frozen=True)
class Grid:
    """Midpoint log grid on [e^-R, e^R].

    Nodes are t_i = exp(x_i) with x_i = -R + (i - 1/2) h, h = 2R/N, so no node
    sits at t = 1, nodes come in exact reciprocal pairs t_i * t_{N+1-i} = 1,
    and exactly N/2 nodes lie on each side of 1.  Weights h * t_i are the
    Jacobian of t = e^x.  Immutable after construction.

    The nodes ascend, so each side of t = 1 is one half of the grid, which
    :meth:`side` gives as a slice; the block of a matrix on the grid between
    two sides (the projections 1_(0,1) and 1_(1,inf)) is a view through two
    such slices.
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

    def side(self, name: str) -> slice:
        """Positions of the nodes on one side of t = 1: ``slice(0, half)``
        for ``"zero"`` (t < 1), ``slice(half, N)`` for ``"infinity"`` (t > 1)."""
        if name == "zero":
            return slice(0, self.half)
        if name == "infinity":
            return slice(self.half, self.N)
        raise GridError(f"side must be 'zero' or 'infinity', got {name!r}")


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


def _nystrom_strips(strip_kernels: Callable, grid: Grid, provenances: Tuple[str, ...]):
    """Symmetric Nystrom matrices sqrt(w_i w_j) K(t_i, t_j), one per provenance,
    of the kernels that ``strip_kernels(s, t)`` returns for a strip of node
    column ``s`` and row ``t`` (closures over values computed once per strip
    can share work between the matrices).

    The upper triangle is walked in strips of ``ROW_BLOCK`` rows: the strip
    [r0, r1) x [r0, N) is evaluated once, scaled, written, and mirrored onto
    the lower triangle (inside the strip's diagonal block from the entries
    i <= j), so every unordered pair is evaluated once, the result is
    symmetric exactly, and no temporary is larger than ``ROW_BLOCK`` x N.
    """
    t, w, n = grid.nodes, grid.weights, grid.N
    outs = tuple(np.empty((n, n)) for _ in provenances)
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        s_col, t_row = t[r0:r1, np.newaxis], t[np.newaxis, r0:]
        scale = np.sqrt(np.outer(w[r0:r1], w[r0:]))
        lower = np.tril_indices(r1 - r0, -1)
        for out, K in zip(outs, strip_kernels(s_col, t_row)):
            vals = _evaluate_kernel(K, s_col, t_row)
            vals *= scale
            out[r0:r1, r0:] = vals
            out[r1:, r0:r1] = vals[:, r1 - r0 :].T
            diag = out[r0:r1, r0:r1]
            diag[lower] = diag.T[lower]
    return tuple(
        OperatorMatrix(grid=grid, entries=e, provenance=p) for e, p in zip(outs, provenances)
    )


def nystrom(K: Callable, grid: Grid, provenance: str = "kernel") -> OperatorMatrix:
    """Symmetric Nystrom matrix sqrt(w_i w_j) K(t_i, t_j).

    The kernel is called on the upper triangle only, on strips of
    ``ROW_BLOCK`` node rows against the nodes from the strip's first row on;
    each strip is mirrored onto the lower triangle, so the result is
    symmetric exactly and equals the upper triangle of the full N x N
    evaluation.  The sqrt-weight scaling keeps the matrix similar to the
    plain quadrature discretisation.
    """
    return _nystrom_strips(lambda s, t: (K,), grid, (provenance,))[0]


def nystrom_rect(K: Callable, row_grid: Grid, col_grid: Grid, provenance: str = "kernel") -> OperatorMatrix:
    """Rectangular Nystrom matrix sqrt(w_i om_j) K(t_i, tau_j) across two grids.

    The kernel is called on strips of ``ROW_BLOCK`` row nodes against every
    column node, each scaled and written into the output, so no temporary is
    larger than ``ROW_BLOCK`` x M and the result equals one evaluation on
    all N x M node pairs.
    """
    t, w, n = row_grid.nodes, row_grid.weights, row_grid.N
    tau_row, om = col_grid.nodes[np.newaxis, :], col_grid.weights
    out = np.empty((n, col_grid.N))
    for r0 in range(0, n, ROW_BLOCK):
        rows = slice(r0, r0 + ROW_BLOCK)
        vals = _evaluate_kernel(K, t[rows, np.newaxis], tau_row)
        vals *= np.sqrt(np.outer(w[rows], om))
        out[rows] = vals
    return OperatorMatrix(grid=row_grid, entries=out, provenance=provenance, col_grid=col_grid)


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
