"""Verification suite: every exact identity and spectral prediction of the
operator family, run across a refinement ladder and consolidated into one
deterministic report.

Check table (names match the report):

  C1  factorisation        A = L^2 through the widened composition quadrature
  C2  block equivalence    inversion symmetry makes the two diagonal blocks
                           of A unitarily equivalent under J (the index
                           reversal): A_00 = J A_inf,inf J entrywise
  C3  kernel split         H(phi0) + H(phi_inf) = A entrywise, and H(phi0)
                           approximates L * 1_inf * L under refinement
  C4  hs identity          |u L|_HS^2 = 2^(-1-2a) int |u|^2 dt/t, plus the
                           divergence witness u = 1
  C5  log pushforward      diagonal blocks of L are unitarily equivalent to
                           Hankel matrices with kernels psi+/psi-: d B d = H
                           entrywise, d the change-of-variables diagonal
  C6  schatten decay       diagonal blocks of L and the cross block of A
                           decay faster than any polynomial; cross-block
                           nuclear norm bounded along the ladder
  C7  residual trace norm  the two-block decomposition of the weighted
                           operator leaves a residual of bounded nuclear norm
  C8  spectral prediction  eigenvalue clouds against the predicted interval
                           unions (model operator, diagonal-block operators,
                           weighted blocks, weighted Hankel operator)

Exact identities are held to tight thresholds: C2 relative to max|A_00|
(BLOCK_EIG_TOL), the split in C3 relative to max|A| (EXACT_TOL), and C5
absolute (PUSHFORWARD_TOL).  C2 and C5 compare entries under the known
unitary: the Frobenius norm of the difference bounds that of the two sorted
eigenvalue lists (Hoffman-Wielandt), so neither solves an eigenproblem.
Quadrature checks (C1, C3 composition, C4, C6, C7) are held to
decreasing/bounded ladder rules with calibrated caps.

:func:`run_suite` walks the ladder once.  On each step (R, N) it builds the
operators the checks share (:class:`_GridPieces`) on first use and lets every
selected check measure one metric row on them.  C4 runs once on its own
fixed grids.  Each check's anchor, rule text and rule live in one table,
``_CHECKS``; the report keeps its order.  The rule alone decides the
verdict, from the check's metric rows alone, so every verdict can be
re-derived from the written report.

The step checks run in the order of a second table, ``_STEP_PIECES``, which
names the pieces each reads, and each piece is freed after the last
selected check of the step that reads it, also when that check aborts:

  C1      composes the widened square Lr Lr^T = B_inf + B_0
          (B_inf = L 1_inf L, B_0 = L 1_0 L) as its own array, not a shared
          piece, before it reads A, forms its residual against A in it and
          drops it; then builds L
  C5      reads L
  C6      reads L and drops it after the two L blocks, before it forms
          the symmetric part of the cross block of A and solves it
  C3      reads A; takes H(phi0) and its split defect from one tile walk,
          with no H(phi_inf) matrix, subtracts L 1_inf L from H(phi0) in
          place, row by row (``discretize.subtract_composed_block``), and
          takes the operator norm of that residual
  C2      reads A, the top half of A - JAJ alone
  C8      solves the model cloud and drops A, then composes the two
          quarters and builds the weighted Hankel matrix
  C7      forms its residual in the weighted Hankel matrix, its last reader;
          the quarters go after it

Every matrix the checks solve is exactly symmetric as built, and reaches
``linalg`` in a form it takes with no symmetry scan (:func:`_upper`,
:func:`_norm`): ``sym_eigen`` and ``singular_values`` get its upper strips
(``quadrature.UpperStrips``) with max|entry|, and ``op_norm`` the map
x -> S @ x.  max|entry| of A and of the weighted Hankel matrix is read by
the Nystrom walk from its tiles, and of a quarter by its constructor; C6's
three blocks, C7's residual and C8's two weighted blocks take one max/min
read each, which raises EigenSolverError on a non-finite entry before the
solve.  C1's and C3's residuals and C1's model norm go to ``op_norm`` as
maps, with the bits of the scanned route.  The tests, not a run-time scan,
show each builder exactly symmetric.

The widened square is ``discretize.operator_square`` and each block or
quarter ``discretize.composed_block``: Gram matrices of Hankel matrices
(the widened factor, or its columns on one side of 1), each built in
O(N^2) by the displacement recurrence from the factor's 3N - 1 values, the
one array it returns alive, with no gather and no N^3 product.  The factor
is evaluated once per step as a view of those values, so no N x 2N array is
built.  Only C1 reads the whole square.  The two-block decomposition (C7,
C8) reads B_inf's (0, 0) and B_0's (inf, inf) quarter, each composed on its
own at a quarter of a block's flops.  So after C1 no whole composed matrix
is alive, and up to C8 no N x N matrix but A and L is held from one check
to the next.
At most about 2.25 N^2 doubles are alive at once (two N x N matrices and a
check's quarter-size buffers), besides tiles and Lanczos vectors: a traced
peak of 2.26 N^2 doubles, in C5, at N = 1600 and N = 2400.  After each step
the C library's heap hands its free memory back (``_heap_trimmer``), so a
step's freed arrays do not stay resident through the next.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import discretize as dz
from .errors import DomainError, EigenSolverError
from .kernels import rational_test_family
from .linalg import op_norm, singular_values, sym_eigen
from .quadrature import ROW_BLOCK, Grid, OperatorMatrix, UpperStrips, check_step, make_grid, quad_integral
from .spectra import analyze, predict, schatten_diagnostic
from .specfun import check_alpha, pi_alpha

__all__ = [
    "CheckResult", "VerificationReport", "run_suite", "check_ladder", "select_checks", "CHECK_NAMES"
]

CHECK_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")

EXACT_TOL = 1e-11
BLOCK_EIG_TOL = 1e-10
PUSHFORWARD_TOL = 1e-8
COMPOSITION_CAP = 1e-2
HS_REL_TOL = 2e-2
HS_WITNESS_RATIO = 1.3
NUCLEAR_GROWTH_CAP = 1.10


def _heap_trimmer() -> Optional[Callable[[], None]]:
    """glibc's ``malloc_trim(0)``, or None where the C library has none.

    glibc serves arrays below its mmap threshold from the heap, and that
    threshold rises to the size of the largest array freed so far, up to
    32 MiB, so an N = 1600 step holds its N x N arrays there.  It gives a
    freed heap top back only when the top reaches twice that threshold:
    after the (12, 1600) step the freed top was 38.4 MiB against a trim
    threshold of 39.1 MiB in some runs, and it stayed resident through the
    next step, 22 MB on the peak RSS of ``verify`` at (14, 2400).  So the
    suite hands the heap's free memory back after each ladder step."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


_trim_heap = _heap_trimmer()


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    grids: Tuple[Tuple[float, int], ...]
    metrics: Tuple[dict, ...]
    verdict: str  # "pass" | "fail"
    rule: str

    def as_dict(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "grids": [list(g) for g in self.grids],
            "metrics": list(self.metrics),
            "verdict": self.verdict,
            "rule": self.rule,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: Tuple[CheckResult, ...]
    verdict: str

    def as_dict(self):
        return {"checks": [c.as_dict() for c in self.checks], "verdict": self.verdict}


def _strictly_decreasing(xs: Sequence[float]) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def _growth_ok(xs: Sequence[float]) -> bool:
    return all(b <= NUCLEAR_GROWTH_CAP * a for a, b in zip(xs, xs[1:]))


def _upper(M) -> UpperStrips:
    """A matrix the suite builds exactly symmetric, an OperatorMatrix or an
    array, as the upper strips that ``linalg`` solves with no symmetry scan.
    max|M| is the OperatorMatrix's own ``amax``, read by the Nystrom walk or
    the constructor, or for an array one max/min read, which raises
    EigenSolverError on a non-finite entry before any solve."""
    if isinstance(M, OperatorMatrix):
        return UpperStrips.of(M.entries, M.amax)
    top, bottom = float(M.max()), float(M.min())  # NaN propagates
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise EigenSolverError("matrix has non-finite entries")
    return UpperStrips.of(M, max(top, -bottom))


def _norm(S: np.ndarray) -> float:
    """Operator norm of an array the suite builds exactly symmetric: Lanczos
    on the map x -> S @ x, the route ``op_norm`` takes for a symmetric array,
    with the same bits and no symmetry scan."""
    return op_norm(partial(np.matmul, S), len(S))


def _writable(M) -> np.ndarray:
    """The entries of an operator that no other reader holds, made writable
    (they own their buffer), so that its last reader works in place."""
    entries = M.entries
    entries.flags.writeable = True
    return entries


class _GridPieces:
    """The operators that several checks share on one ladder step, each
    assembled on first use and kept until :meth:`free` drops it."""

    def __init__(self, alpha: float, grid: Grid, family):
        self.alpha, self.grid, self.family = alpha, grid, family
        self.m0, self.mi = grid.side("zero"), grid.side("infinity")

    def free(self, piece: str) -> None:
        """Drop a piece, so that its memory goes once the checks hold no view of it."""
        self.__dict__.pop(piece, None)

    @cached_property
    def A(self):
        return dz.assemble_A(self.alpha, self.grid)

    @cached_property
    def L(self):
        return dz.assemble_L(self.alpha, self.grid)

    @cached_property
    def Lr(self):  # the widened factor, a view of its 3N - 1 values
        return dz.assemble_L_rect(self.alpha, self.grid)

    # The two-block decomposition (C7, C8) reads only the (0, 0) quarter of
    # L 1_inf L and the (inf, inf) quarter of L 1_0 L, each composed as its
    # own product when it is first read
    @cached_property
    def quarter_inf(self):
        return dz.composed_block(self.Lr, "infinity", "zero")

    @cached_property
    def quarter_0(self):
        return dz.composed_block(self.Lr, "zero", "infinity")

    @cached_property
    def weighted(self):
        """The family's weighted Hankel matrix and v = w(t) t^(-alpha) on the nodes."""
        spec_a, spec_w = rational_test_family(self.alpha, *self.family)
        t = self.grid.nodes
        return dz.assemble_wHa(spec_a, spec_w, self.grid), spec_w.eval(t) * t ** (-self.alpha)


def _check_c1(alpha: float, p: _GridPieces):
    # L 1_inf L + L 1_0 L is the widened square Lr Lr^T, C1's own array,
    # formed before A exists and dropped before L does.  The wide residual
    # is formed in it explicitly: at large R it sits at the rounding floor
    # eps * |A|, below the rounding of the map x -> Lr(Lr^T x) - Ax
    wide = _writable(dz.operator_square(p.Lr))
    A = p.A.entries
    a_norm = _norm(A)
    wide -= A
    wide = _norm(wide) / a_norm
    L = p.L.entries
    window = op_norm(lambda x: L @ (L @ x) - A @ x, len(A)) / a_norm
    return {"residual": wide, "window_leakage": window, "model_norm": a_norm}


def _check_c2(alpha: float, p: _GridPieces):
    A, n = p.A.entries, p.m0.stop
    # A - JAJ strip by strip against the reversed rows, with no N x N
    # temporary: its largest entry is the persymmetry defect, and its (0, 0)
    # quarter is A_00 - J A_inf,inf J, whose Frobenius norm bounds the
    # difference of the two blocks' sorted eigenvalues (Hoffman-Wielandt)
    JAJ, persym, diff_sq, scale = A[::-1, ::-1], 0.0, 0.0, 1e-300
    # only the top half: D = A - JAJ has D_(N-1-i, N-1-j) = -D_ij exactly
    # (x - y = -(y - x) in floating point), so the rows [n, N) hold no
    # magnitude the rows [0, n) lack
    for r0 in range(0, n, ROW_BLOCK):
        rows = slice(r0, min(r0 + ROW_BLOCK, n))
        strip = A[rows] - JAJ[rows]
        persym = max(persym, float(np.abs(strip).max()))
        quarter = strip[:, :n]
        diff_sq += float(np.einsum("ij,ij->", quarter, quarter))
        scale = max(scale, float(np.abs(A[rows, :n]).max()))
    # block_max = max|A_00|, the scale of C2's bound: max|A_00| <= |A_00|_2,
    # so it is never looser than a scale from the top eigenvalue
    return {"eig_diff": math.sqrt(diff_sq), "persymmetry_defect": persym, "block_max": scale}


def _check_c3(alpha: float, p: _GridPieces):
    H0, defect = dz.phi0_and_split_defect(alpha, p.grid, p.A.entries)
    split = defect / p.A.amax
    dz.subtract_composed_block(H0, p.Lr, "infinity")
    return {"split_error": split, "composition_residual": _norm(H0)}


_HS_BATTERY = (
    ("indicator[1,e]", lambda t: ((t >= 1.0) & (t <= math.e)).astype(float)),
    ("gauss_log_bump", lambda t: np.exp(-np.log(t) ** 2)),
    ("t_exp(-t)", lambda t: t * np.exp(-t)),
)
# the identity battery is calibrated at (8, 600); the divergence witness
# doubles the truncation width at fixed step
_HS_GRIDS = ((8.0, 600), (4.0, 600), (8.0, 1200))


def _check_c4(alpha: float):
    grids = [make_grid(R, N) for R, N in _HS_GRIDS]
    # |u L|_HS^2 = sum_i u(t_i)^2 r_i, r_i the squared norm of row i of the widened
    # factor, reduced over a view of its 3N - 1 values: no N x 2N array is built
    factors = [dz.assemble_L_rect(alpha, g).entries for g in grids]
    row_sq = [np.einsum("ij,ij->i", L, L) for L in factors]
    g_id = grids[0]
    scale = 2.0 ** (-1.0 - 2.0 * alpha)
    rows = []
    for label, u in _HS_BATTERY:
        lhs = float((u(g_id.nodes) ** 2 * row_sq[0]).sum())
        rhs = scale * quad_integral(lambda t: u(t) ** 2 / t, g_id)
        rel = abs(lhs - rhs) / abs(rhs)
        rows.append({"u": label, "hs_sq": lhs, "integral": rhs, "rel_err": rel})
    fr = [float(np.sqrt(r.sum())) for r in row_sq[1:]]
    rows.append({"u": "constant_1", "hs_R4": fr[0], "hs_R8": fr[1], "ratio": fr[1] / fr[0]})
    return rows


def _check_c5(alpha: float, p: _GridPieces):
    # |d B d - H|_F bounds the difference of the sorted eigenvalues of the
    # block B and of the Hankel matrix H (Hoffman-Wielandt)
    row = {}
    # one quarter-size buffer for both sides: scaled, then differenced in
    # place against the Hankel matrix, a view of its 2n - 1 values
    pushed = np.empty((p.grid.half, p.grid.half))
    for side, mask in (("zero", p.m0), ("infinity", p.mi)):
        block = p.L.entries[mask, mask]
        if side == "zero":
            block = block[::-1, ::-1]  # ascending in x = -ln t
        d = dz.change_of_variables_diagonal(p.grid, side)
        np.multiply(d[:, np.newaxis], block, out=pushed)
        pushed *= d[np.newaxis, :]
        pushed -= dz.log_pushforward_hankel(side, alpha, p.grid).entries
        row[f"eig_diff_{side}"] = float(np.linalg.norm(pushed))
    return row


def _cross_block(A: np.ndarray, grid: Grid) -> np.ndarray:
    """S = 1/2 B + 1/2 B^T, exactly symmetric, for the cross block
    B = A_0,inf J of A with its columns reversed.  A is persymmetric (C2
    measures A - JAJ), so B is a symmetric Hankel matrix with the singular
    values of A_0,inf to rounding, and |sigma_k(B) - sigma_k(S)| <=
    1/2 |B - B^T|_2 (Weyl): 1/2 |B - B^T|_F is 3e-17 to 6e-17 at (10, 800),
    (14, 2400) (alpha = 0.5) and (16, 3200) (alpha = 0), where S's values
    miss LAPACK's Jacobi SVD of B by 1.5e-16 to 2.1e-16, within certificate."""
    S = np.multiply(A[grid.side("zero"), grid.side("infinity")][:, ::-1], 0.5)
    # in place, strip by strip (a second array for 1/2 B added 6.4 MB to the
    # large ladder's peak RSS); rows and columns from r0 on still hold 1/2 B
    for r0 in range(0, len(S), ROW_BLOCK):
        rows = S[r0 : r0 + ROW_BLOCK, r0:]
        rows += S[r0:, r0 : r0 + ROW_BLOCK].T
        S[r0:, r0 : r0 + ROW_BLOCK] = rows.T
    return S


def _check_c6(alpha: float, p: _GridPieces):
    row = {}
    for label, matrix in (
        ("L_00", lambda: _upper(p.L.entries[p.m0, p.m0])),
        ("L_ii", lambda: _upper(p.L.entries[p.mi, p.mi])),
        ("A_0i", lambda: _upper(_cross_block(p.A.entries, p.grid))),
    ):
        block = matrix()
        sv = singular_values(block)
        # the numerical-rank tolerance of the singular values; a tenth value
        # at or below it is rounding noise, and its ratio reads 0
        floor = max(block.shape) * np.finfo(float).eps * sv[0]
        del block  # no view of L outlives its free below
        diag = schatten_diagnostic(sv, floor)
        row[label] = {
            "verdict": diag.verdict,
            "p_fit": diag.p_fit,
            "sigma_ratio_10_1": float(sv[9] / sv[0]) if sv.size >= 10 and sv[9] > floor else 0.0,
        }
        if label == "L_ii":
            # no check after C6 reads L: it goes before the cross block is formed
            p.free("L")
        if label == "A_0i":
            row[label]["nuclear"] = float(sv.sum())
    return row


def _weighted_block(p: _GridPieces, side: str) -> np.ndarray:
    """One diagonal block of the two-block decomposition of the weighted
    operator, without its coefficient: v (L 1_inf L) v on the zero side or
    v (L 1_0 L) v on the infinity side, v = w(t) t^(-alpha), formed as
    (v_i v_j) b_ij in one quarter-size buffer.  v_i v_j == v_j v_i and the
    quarter is exactly symmetric, so the block is too."""
    block, half = (p.quarter_inf, p.m0) if side == "zero" else (p.quarter_0, p.mi)
    vs = p.weighted[1][half]
    wb = np.multiply.outer(vs, vs)
    wb *= block.entries
    return wb


def _residual_matrix(p: _GridPieces) -> np.ndarray:
    """Residual of the two-block decomposition of the weighted operator,
    assembled from already-verified pieces: the weighted Hankel matrix less
    a0 times ``_weighted_block`` on the zero quarter and a_inf times it on
    the infinity quarter, one side at a time, each block dropped before the
    next is made.  It is formed in the weighted matrix itself, which C7
    reads last: the piece is dropped here, so no later reader sees it."""
    a0, a_inf, _, _ = p.family
    T = _writable(p.weighted[0])
    for coeff, side, half in ((a0, "zero", p.m0), (a_inf, "infinity", p.mi)):
        wb = _weighted_block(p, side)
        wb *= coeff
        quarter = T[half, half]
        quarter -= wb
        del wb
    p.free("weighted")
    return T


def _check_c7(alpha: float, p: _GridPieces):
    sv = singular_values(_upper(_residual_matrix(p)))
    return {"nuclear": float(sv.sum()), "op": float(sv[0])}


def _check_c8(alpha: float, p: _GridPieces):
    # each cloud with a predicted interval is solved one at a time: a
    # weighted block is made when its turn comes and dropped after its solve
    a0, a_inf, b0, b_inf = p.family
    pa = pi_alpha(alpha)
    single = lambda c: predict(alpha, c / pa, 0.0, 1.0, 1.0)
    items = (
        ("model", lambda: p.A, predict(alpha, 1.0, 1.0, 1.0, 1.0)),
        ("block_zero", lambda: p.quarter_inf, single(pa)),
        ("block_infinity", lambda: p.quarter_0, single(pa)),
        ("weighted_block_zero", lambda: _weighted_block(p, "zero"), single(pa * b0**2)),
        ("weighted_block_infinity", lambda: _weighted_block(p, "infinity"), single(pa * b_inf**2)),
        ("weighted_hankel", lambda: p.weighted[0], predict(alpha, a0, a_inf, b0, b_inf)),
    )
    row = {}
    for label, matrix, predicted in items:
        if label != "model":
            p.free("A")  # the model cloud reads A last: it goes before the weighted matrix comes
        if not predicted.intervals:
            continue
        rep = analyze(sym_eigen(_upper(matrix())), predicted)
        row[label] = {
            "outliers": len(rep.outliers),
            "max_gap": rep.fill_max_gap,
            "hausdorff": rep.hausdorff,
            "top": float(rep.eigenvalues[-1]),
        }
    return row


def _c8_ladder(rows: Sequence[dict]) -> bool:
    first, last = rows[0], rows[-1]
    ok = _strictly_decreasing([row["model"]["max_gap"] for row in rows])
    for label, item in last.items():
        if label.startswith("weighted_block"):
            # isolated eigenvalues above the essential spectrum are allowed
            # but must not proliferate under refinement
            ok = ok and item["outliers"] <= max(first[label]["outliers"], 4)
        else:  # any other cloud has none on any step
            ok = ok and not any(row[label]["outliers"] for row in rows)
        # block fills are pre-asymptotic at coarse grids; they may wiggle
        # but must not grow materially under refinement
        ok = ok and item["max_gap"] <= 1.10 * first[label]["max_gap"]
    return ok


# What the checks do not measure: name -> (anchor, rule text, rule).  The
# rule is the one place a verdict is decided.  It reads only the check's
# metric rows, one per ladder step (C4's rows are its fixed grids'), so the
# written report re-derives it: the per-step bound on every row, then the
# ladder rule, which holds on a one-step ladder.
_CHECKS: Dict[str, Tuple[str, str, Callable[[Sequence[dict]], bool]]] = {
    "C1": (
        "A = L^2 factorisation",
        f"composition residual <= {COMPOSITION_CAP} and strictly decreasing",
        lambda rows: all(r["residual"] <= COMPOSITION_CAP for r in rows)
        and _strictly_decreasing([r["residual"] for r in rows]),
    ),
    "C2": (
        "inversion symmetry: diagonal blocks isospectral",
        f"|A_00 - J A_inf,inf J|_F <= {BLOCK_EIG_TOL} * max|A_00|",
        lambda rows: all(r["eig_diff"] <= BLOCK_EIG_TOL * r["block_max"] for r in rows),
    ),
    "C3": (
        "kernel split phi0 + phi_inf and composition identity",
        f"entrywise split <= {EXACT_TOL} * max|A|; composition residual decreasing",
        lambda rows: all(r["split_error"] <= EXACT_TOL for r in rows)
        and _strictly_decreasing([r["composition_residual"] for r in rows]),
    ),
    "C4": (
        "Hilbert-Schmidt norm identity for uL",
        f"battery relative error <= {HS_REL_TOL}; witness ratio >= {HS_WITNESS_RATIO}",
        # the battery's rows, then the witness's
        lambda rows: all(r["rel_err"] <= HS_REL_TOL for r in rows[:-1])
        and rows[-1]["ratio"] >= HS_WITNESS_RATIO,
    ),
    "C5": (
        "log-variable Hankel equivalence of diagonal blocks",
        f"|d L_block d - H(psi)|_F <= {PUSHFORWARD_TOL} on each side",
        lambda rows: all(diff <= PUSHFORWARD_TOL for r in rows for diff in r.values()),
    ),
    "C6": (
        "Schatten decay of diagonal L blocks and the A cross block",
        f"super-polynomial decay; cross nuclear growth <= {NUCLEAR_GROWTH_CAP}/step",
        lambda rows: all(block["verdict"] == "super_polynomial" for r in rows for block in r.values())
        and _growth_ok([r["A_0i"]["nuclear"] for r in rows]),
    ),
    "C7": (
        "trace-class residual of the two-block decomposition",
        f"residual nuclear norm growth <= {NUCLEAR_GROWTH_CAP} per ladder step",
        lambda rows: _growth_ok([r["nuclear"] for r in rows]),
    ),
    "C8": (
        "predicted a.c. interval fill and outlier counts",
        "zero outliers (bounded for weighted blocks); model fill strictly "
        "decreasing; block fill within 10% of the coarsest step",
        _c8_ladder,
    ),
}


# The step checks in the order they run on each ladder step, with the
# _GridPieces pieces each reads.  Each piece is freed after the last
# selected check of the step that reads it, also when that check aborts.
# The order keeps no whole composed matrix past C1 and at most two N x N
# matrices alive at once: C1 drops its widened square (its own array, not a
# piece) before L exists, C6 drops L before it forms the cross block of A,
# so L is gone before C3 makes H(phi0), C8 drops A once the model cloud is
# solved, before the weighted Hankel matrix comes, and C7 forms its
# residual in that matrix.
# The quarters are composed by C8 (by C7 when it runs without C8, from a
# widened factor that then goes with the step).
_STEP_PIECES: Dict[str, Tuple[str, ...]] = {
    "C1": ("Lr", "A", "L"),
    "C5": ("L",),
    "C6": ("A", "L"),
    "C3": ("A", "Lr"),
    "C2": ("A",),
    "C8": ("A", "Lr", "quarter_inf", "quarter_0", "weighted"),
    "C7": ("quarter_inf", "quarter_0", "weighted"),
}


def check_ladder(ladder: Sequence[Tuple[float, int]]) -> List[Tuple[float, int]]:
    """The ladder as (R, N) pairs of :func:`check_step`, which raises
    GridError on a bad step; raises DomainError unless the ladder is
    non-empty and increasing in (R, N)."""
    ladder = [check_step(R, N) for R, N in ladder]
    if not ladder:
        raise DomainError("ladder must be non-empty")
    if any(ladder[i] >= ladder[i + 1] for i in range(len(ladder) - 1)):
        raise DomainError("ladder must be increasing in (R, N)")
    return ladder


def select_checks(names: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """The named checks, in any case, in report order, or all eight when
    ``names`` is None; raises DomainError on an unknown name or an empty
    selection."""
    if names is None:
        return CHECK_NAMES
    if not names:
        raise DomainError(f"no checks named; valid names are {CHECK_NAMES}")
    upper = {c.upper() for c in names}
    bad = [c for c in names if c.upper() not in CHECK_NAMES]
    if bad:
        raise DomainError(f"unknown checks: {bad}; valid names are {CHECK_NAMES}")
    return tuple(name for name in CHECK_NAMES if name in upper)


def run_suite(
    alpha,
    ladder: Sequence[Tuple[float, int]],
    checks: Optional[Sequence[str]] = None,
    family: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
) -> VerificationReport:
    """Run the selected checks (all eight by default) over the ladder.

    The ladder must pass :func:`check_ladder` and the checks
    :func:`select_checks`; individual check failures are recorded and the
    suite continues.  Reports are deterministic: rerunning with identical
    inputs gives identical output.
    """
    a = check_alpha(alpha)
    ladder = check_ladder(ladder)
    grids = [make_grid(R, N) for R, N in ladder]
    selected = select_checks(checks)

    rows: Dict[str, list] = {name: [] for name in selected}
    errors: Dict[str, str] = {}

    def attempt(name, check, *args):
        try:
            return check(*args)
        except Exception as exc:  # the check is aborted, the suite continues
            errors[name] = f"{type(exc).__name__}: {exc}"
            return None

    if "C4" in selected:
        rows["C4"] = attempt("C4", _check_c4, a)
    for grid in grids:
        todo = [name for name in _STEP_PIECES if name in selected and name not in errors]
        p = _GridPieces(a, grid, family)
        for i, name in enumerate(todo):
            # looked up by name, so that a check wrapped on the module is the one that runs
            rows[name].append(attempt(name, globals()[f"_check_{name.lower()}"], a, p))
            later = {piece for n in todo[i + 1 :] for piece in _STEP_PIECES[n]}
            for piece in set(_STEP_PIECES[name]) - later:
                p.free(piece)
        del p  # the step's operators go before the next step's are built
        if _trim_heap is not None:
            _trim_heap()

    results = []
    for name in selected:
        anchor, rule, holds = _CHECKS[name]
        steps, metrics = (_HS_GRIDS if name == "C4" else ladder), rows[name]
        if name in errors:
            anchor, rule, steps = "(check aborted)", "check must run to completion", ladder
            metrics, ok = [{"error": errors[name]}], False
        else:
            ok = holds(metrics)
        verdict = "pass" if ok else "fail"
        results.append(CheckResult(name, anchor, tuple(steps), tuple(metrics), verdict, rule))
    verdict = "pass" if all(r.verdict == "pass" for r in results) else "fail"
    return VerificationReport(checks=tuple(results), verdict=verdict)
