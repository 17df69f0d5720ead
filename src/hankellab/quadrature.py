"""Logarithmic midpoint grids on truncations of the half-line and symmetric
Nystrom discretisation of integral operators.

Every kernel value is evaluated, scaled by sqrt(w_s w_t) and checked in one
step, :func:`_kernel_tiles`, from a *tile function* ``tile_values(s, t)``
with one value array per matrix on a tile of nodes s x t.  One walk,
:func:`_upper_tiles`, takes the upper triangle through it in
``ROW_BLOCK`` x ``COL_BLOCK`` tiles, and two sinks store its tiles:
:func:`_nystrom_tiles` writes full N x N matrices, mirroring each tile onto
the lower triangle (:func:`nystrom`, for the verification suite, which cuts
its matrices into blocks, quarters and reversals), and
:func:`nystrom_strips` writes the packed form :class:`UpperStrips`, the
upper row strips alone, about half the entries, with no mirror store (for
``spectrum``, which only needs the eigenvalues).  Both sinks read
max|entry| from each tile as they store it, so neither scans its result
again: the walk has checked every value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import GridError, KernelEvaluationError, QuadratureError

__all__ = [
    "Grid",
    "OperatorMatrix",
    "UpperStrips",
    "check_step",
    "make_grid",
    "nystrom",
    "nystrom_strips",
    "quad_integral",
]

# Rows per strip of the Nystrom assemblies, of the packed form UpperStrips
# and of the symmetry test in linalg: temporaries stay at ROW_BLOCK rows of
# the output.
ROW_BLOCK = 128
# Columns per tile of the Nystrom assemblies' walk, a multiple of ROW_BLOCK:
# their temporaries stay at ROW_BLOCK x COL_BLOCK, whatever N.
COL_BLOCK = 512


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


def check_step(R: float, N: int) -> Tuple[float, int]:
    """The grid step (R, N) as (float, int); raises GridError unless R is
    positive and finite and N an even integer >= 2 (the split at t = 1 needs
    a midpoint-free symmetric grid)."""
    R = float(R)
    if not 0.0 < R < math.inf:
        raise GridError(f"R must be positive and finite, got {R}")
    if not (float(N).is_integer() and N >= 2 and N % 2 == 0):
        raise GridError(f"N must be an even integer >= 2, got {N}")
    return R, int(N)


def make_grid(R: float, N: int) -> Grid:
    """Build the midpoint log grid on the step (R, N) of :func:`check_step`."""
    R, N = check_step(R, N)
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
    a wider grid).  The entries are read-only, maybe a view of fewer values (a
    Hankel matrix of its antidiagonals).  ``amax`` is max|entry|: the
    constructor reads it from the min and max by which it tests the entries
    for finiteness, and the Nystrom walk from its tiles as it stores them
    (:meth:`_walked`).  Equality and hashing are by identity.
    """

    grid: Grid
    entries: np.ndarray
    provenance: str
    col_grid: Optional[Grid] = None
    amax: float = field(init=False, repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        top, bottom = (float(e.max()), float(e.min())) if e.size else (0.0, 0.0)
        if not (math.isfinite(top) and math.isfinite(bottom)):  # NaN propagates
            raise KernelEvaluationError(f"non-finite entries in {self.provenance!r}")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "amax", max(top, -bottom))

    @classmethod
    def _walked(cls, grid: Grid, entries: np.ndarray, provenance: str, amax: float) -> "OperatorMatrix":
        """A square matrix of the Nystrom walk, whose every entry
        :func:`_kernel_tiles` has checked and whose max|entry| ``amax`` the
        walk has read: taken as it is, with no second scan."""
        M = object.__new__(cls)
        entries.flags.writeable = False
        fields = dict(grid=grid, entries=entries, provenance=provenance, col_grid=None, amax=amax)
        for name, value in fields.items():
            object.__setattr__(M, name, value)
        return M


def _kernel_tiles(tile_values: Callable, s, t, w_s, w_t) -> list:
    """sqrt(w_s w_t) times each value array of ``tile_values(s, t)``, one
    per matrix, on the node column ``s`` (n x 1) and row ``t`` (1 x m): the
    one place where a kernel value is evaluated, scaled and checked.  Any
    exception of the call becomes KernelEvaluationError; each array is
    broadcast to the tile and scaled in place by a scale formed after the
    call, and the first value not finite after scaling raises
    KernelEvaluationError at its node pair."""
    shape = (s.shape[0], t.shape[1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            tiles = [np.asarray(v, dtype=float) for v in tile_values(s, t)]
        except Exception as exc:
            raise KernelEvaluationError(f"kernel evaluation raised on the node arrays: {exc}") from exc
        tiles = [v if v.shape == shape else np.broadcast_to(v, shape).copy() for v in tiles]
        scale = np.sqrt(np.outer(w_s, w_t))
        for vals in tiles:
            vals *= scale
            if not np.isfinite(vals).all():
                i, j = np.argwhere(~np.isfinite(vals))[0]
                s_bad, t_bad = float(s[i, 0]), float(t[0, j])
                raise KernelEvaluationError(
                    f"scaled kernel value not finite at (s, t) = ({s_bad!r}, {t_bad!r})", s=s_bad, t=t_bad
                )
    return tiles


def _upper_tiles(tile_values: Callable, grid: Grid):
    """Walk the upper triangle of the symmetric Nystrom matrices
    sqrt(w_i w_j) K(t_i, t_j) of the kernels whose values
    ``tile_values(s, t)`` returns for a tile of node column ``s`` and row
    ``t`` (see :func:`_kernel_tiles`; values computed once per tile can
    serve every matrix).

    Yields (rows, cols, tiles) for each tile of ``ROW_BLOCK`` rows and at
    most ``COL_BLOCK`` columns: the entries rows x cols of each matrix,
    evaluated once and scaled.  The tiles of one row strip [r0, r1) cover
    its columns [r0, N); the first holds the strip's diagonal block, whose
    lower triangle is mirrored from the entries i <= j.  So every unordered
    pair is evaluated once, and no temporary is larger than a tile.  The
    walk keeps no reference to a tile it has yielded, so a sink that drops
    its own before asking for the next tile holds one tile's temporaries.
    """
    t, w, n = grid.nodes, grid.weights, grid.N
    for r0 in range(0, n, ROW_BLOCK):
        rows = slice(r0, min(r0 + ROW_BLOCK, n))
        lower = np.tril_indices(rows.stop - r0, -1)
        s_col = t[rows, np.newaxis]
        for c0 in range(r0, n, COL_BLOCK):
            cols = slice(c0, min(c0 + COL_BLOCK, n))
            tiles = _kernel_tiles(tile_values, s_col, t[np.newaxis, cols], w[rows], w[cols])
            if c0 == r0:
                for vals in tiles:
                    diag = vals[:, : rows.stop - r0]
                    diag[lower] = diag.T[lower]
                del diag, vals
            yield rows, cols, tiles
            del tiles  # so the sink holds the only references to them


def _store_tile(out: np.ndarray, rows: slice, cols: slice, vals: np.ndarray) -> None:
    """Write an upper tile of :func:`_upper_tiles` into ``out`` and mirror
    its entries right of the diagonal block onto the lower triangle, so
    that ``out`` is symmetric exactly."""
    out[rows, cols] = vals
    k = max(rows.stop - cols.start, 0)  # the diagonal block is mirrored in the tile
    out[cols.start + k : cols.stop, rows] = vals[:, k:].T


def _nystrom_tiles(tile_values: Callable, grid: Grid, provenances: Tuple[str, ...]):
    """Symmetric Nystrom matrices, one per provenance, of the value arrays
    of ``tile_values``, stored tile by tile from :func:`_upper_tiles`."""
    n = grid.N
    outs = tuple(np.empty((n, n)) for _ in provenances)
    amax = [0.0] * len(outs)
    for rows, cols, tiles in _upper_tiles(tile_values, grid):
        for k, (out, vals) in enumerate(zip(outs, tiles)):
            _store_tile(out, rows, cols, vals)
            amax[k] = _tile_amax(amax[k], vals)
        del tiles, vals  # dropped before the walk evaluates the next tile
    return tuple(OperatorMatrix._walked(grid, *args) for args in zip(outs, provenances, amax))


def _tile_amax(amax: float, vals: np.ndarray) -> float:
    """max(amax, max|vals|) for a tile of :func:`_upper_tiles`, whose values
    cover every entry of the matrices: so the last is max|entry| exactly."""
    return max(amax, float(vals.max()), -float(vals.min()))


@dataclass(frozen=True, eq=False)
class UpperStrips:
    """A symmetric n x n matrix held as its upper row strips.

    Strip b is the rows [r0, r0 + ROW_BLOCK) and the columns [r0, n) of the
    matrix, r0 = b * ROW_BLOCK, its square diagonal block full; the lower
    triangle left of it is never stored.  So the strips hold about half the
    entries (0.52 n^2 at n = 3200, 40.6 MiB against 78.1 MiB).  ``amax`` is
    max|entry|.  :func:`nystrom_strips` builds the strips as arrays of their
    own; :meth:`of` takes them as views of a full array A, of which they
    read nothing left of the diagonal blocks.  The matrix they then hold is
    A's strips mirrored below the diagonal blocks, which stay A's own: A
    itself when A == A^T.  ``linalg`` takes strips as they are, with no
    scan, so whoever makes them vouches for that: ``linalg``'s own gate
    after its scan, and ``verify`` for the arrays it builds exactly
    symmetric, with max|A| from their builder or from one max/min read.
    Equality and hashing are by identity.
    """

    n: int
    strips: Tuple[np.ndarray, ...]
    amax: float

    @classmethod
    def of(cls, A: np.ndarray, amax: float) -> "UpperStrips":
        """The upper strips of a square array A, as views, with max|A| = ``amax``."""
        n = A.shape[0]
        return cls(n, tuple(A[r0 : r0 + ROW_BLOCK, r0:] for r0 in range(0, n, ROW_BLOCK)), amax)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    def row_strips(self):
        """(r0, r1, strip) for each strip, its rows [r0, r1)."""
        for strip in self.strips:
            r0 = self.n - strip.shape[1]
            yield r0, r0 + strip.shape[0], strip

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        """The product U X of the matrix U held with an n-row X: each strip
        adds its rows, U[r0:r1, r0:] X[r0:], and the mirror of its part right
        of the diagonal block, U[r0:r1, r1:]^T X[r0:r1], to the rows below."""
        Y = np.zeros((self.n, X.shape[1]))
        for r0, r1, strip in self.row_strips():
            Y[r0:r1] += strip @ X[r0:]
            Y[r1:] += strip[:, r1 - r0 :].T @ X[r0:r1]
        return Y

    def dense(self) -> np.ndarray:
        """The full n x n matrix held, built from the strips."""
        out = np.empty(self.shape)
        for r0, r1, strip in self.row_strips():
            _store_tile(out, slice(r0, r1), slice(r0, self.n), strip)
        return out


def nystrom_strips(K: Callable, grid: Grid) -> UpperStrips:
    """The matrix of :func:`nystrom` as its upper row strips, from the same
    tiles, so with the same bits and checks; no entry is mirrored or stored
    twice, and max|entry| is read from each tile as it is stored."""
    n, strips, amax = grid.N, [], 0.0
    for rows, cols, (vals,) in _upper_tiles(lambda s, t: (K(s, t),), grid):
        if cols.start == rows.start:
            strips.append(np.empty((rows.stop - rows.start, n - rows.start)))
        strips[-1][:, cols.start - rows.start : cols.stop - rows.start] = vals
        amax = _tile_amax(amax, vals)
        del vals  # dropped before the walk evaluates the next tile
    return UpperStrips(n, tuple(strips), amax)


def nystrom(K: Callable, grid: Grid, provenance: str = "kernel") -> OperatorMatrix:
    """Symmetric Nystrom matrix sqrt(w_i w_j) K(t_i, t_j).

    The kernel is called on the upper triangle only, on tiles of
    ``ROW_BLOCK`` node rows by at most ``COL_BLOCK`` node columns from the
    diagonal on; each tile is mirrored onto the lower triangle, so the
    result is symmetric exactly and equals the upper triangle of the full
    N x N evaluation.  The sqrt-weight scaling keeps the matrix similar to
    the plain quadrature discretisation.  A kernel that raises, or an entry
    that is not finite, also one that only the scaling makes, raises
    KernelEvaluationError with its node pair.
    """
    return _nystrom_tiles(lambda s, t: (K(s, t),), grid, (provenance,))[0]


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
