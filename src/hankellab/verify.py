"""Verification suite: every exact identity and spectral prediction of the
operator family, run across a refinement ladder and consolidated into one
deterministic report.

Check table (names match the report):

  C1  factorisation        A = L^2 through the widened composition quadrature
  C2  block similarity     inversion symmetry makes the two diagonal blocks
                           of A exactly isospectral
  C3  kernel split         H(phi0) + H(phi_inf) = A entrywise, and H(phi0)
                           approximates L * 1_inf * L under refinement
  C4  hs identity          |u L|_HS^2 = 2^(-1-2a) int |u|^2 dt/t, plus the
                           divergence witness u = 1
  C5  log pushforward      diagonal blocks of L are unitarily equivalent to
                           Hankel matrices with kernels psi+/psi-
  C6  schatten decay       diagonal blocks of L and the cross block of A
                           decay faster than any polynomial; cross-block
                           nuclear norm bounded along the ladder
  C7  residual trace norm  the two-block decomposition of the weighted
                           operator leaves a residual of bounded nuclear norm
  C8  spectral prediction  eigenvalue clouds against the predicted interval
                           unions (model operator, diagonal-block operators,
                           weighted blocks, weighted Hankel operator)

Exact identities (C2, the split in C3, C5) are held to tight absolute
thresholds; quadrature checks (C1, C3 composition, C4, C6, C7) are held to
decreasing/bounded ladder rules with calibrated caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import discretize as dz
from .errors import DomainError
from .kernels import rational_test_family
from .linalg import op_norm, singular_values, sym_eigen
from .quadrature import Grid, make_grid, quad_integral
from .spectra import analyze, predict, schatten_diagnostic
from .specfun import check_alpha, pi_alpha

__all__ = ["CheckResult", "VerificationReport", "run_suite", "CHECK_NAMES"]

CHECK_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")

EXACT_TOL = 1e-11
BLOCK_EIG_TOL = 1e-10
PUSHFORWARD_TOL = 1e-8
COMPOSITION_CAP = 1e-2
HS_REL_TOL = 2e-2
HS_WITNESS_RATIO = 1.3
NUCLEAR_GROWTH_CAP = 1.10


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


def _growth_ok(xs: Sequence[float], cap: float = NUCLEAR_GROWTH_CAP) -> bool:
    return all(b <= cap * a + 1e-300 for a, b in zip(xs, xs[1:]))


class _GridPieces:
    """The operators that several checks share on one ladder step, each
    assembled on first use and then kept for the rest of the suite."""

    def __init__(self, alpha: float, grid: Grid, family):
        self.alpha, self.grid, self.family = alpha, grid, family
        self.m0, self.mi = grid.side("zero"), grid.side("infinity")

    @cached_property
    def A(self):
        return dz.assemble_A(self.alpha, self.grid)

    @cached_property
    def L(self):
        return dz.assemble_L(self.alpha, self.grid)

    @cached_property
    def blocks(self):
        """(L 1_inf L, L 1_0 L), both composed from one widened factor."""
        Lr = dz.assemble_L_rect(self.alpha, self.grid)
        return dz.composed_block(Lr, "infinity"), dz.composed_block(Lr, "zero")

    @cached_property
    def weighted(self):
        """The family's weighted Hankel matrix and v = w(t) t^(-alpha) on the nodes."""
        spec_a, spec_w = rational_test_family(self.alpha, *self.family)
        t = self.grid.nodes
        return dz.assemble_wHa(spec_a, spec_w, self.grid), spec_w.eval(t) * t ** (-self.alpha)


def _check_c1(alpha: float, pieces: Sequence[_GridPieces]) -> CheckResult:
    wide_resids, window_resids, metrics = [], [], []
    for p in pieces:
        A = p.A.entries
        a_norm = op_norm(A)
        # a short-lived factor of its own: keeping the blocks' factor, or
        # summing the blocks here, keeps more large matrices alive through
        # C3's split evaluation and raises the suite's peak memory.  The wide
        # residual is formed explicitly: at large R it sits at the rounding
        # floor eps * |A|, below the rounding of the map x -> Lr(Lr^T x) - Ax
        sq = dz.operator_square(dz.assemble_L_rect(alpha, p.grid))
        wide = op_norm(sq.entries - A) / a_norm
        L = p.L.entries
        window = op_norm(lambda x: L @ (L @ x) - A @ x, len(A)) / a_norm
        wide_resids.append(wide)
        window_resids.append(window)
        metrics.append(
            {"residual": wide, "window_leakage": window, "model_norm": a_norm}
        )
    ok = all(r <= COMPOSITION_CAP for r in wide_resids)
    if len(wide_resids) > 1:
        ok = ok and _strictly_decreasing(wide_resids)
    return CheckResult(
        name="C1",
        anchor="A = L^2 factorisation",
        grids=tuple((p.grid.R, p.grid.N) for p in pieces),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=f"composition residual <= {COMPOSITION_CAP} and strictly decreasing",
    )


def _check_c2(alpha: float, pieces: Sequence[_GridPieces]) -> CheckResult:
    metrics, ok = [], True
    for p in pieces:
        A = p.A.entries
        e0 = sym_eigen(A[p.m0, p.m0])
        ei = sym_eigen(A[p.mi, p.mi])
        diff = float(np.abs(e0 - ei).max())
        a_norm = float(np.abs(np.concatenate([e0, ei])).max())
        persym = float(np.abs(A - A[::-1, ::-1]).max())
        metrics.append({"eig_diff": diff, "persymmetry_defect": persym})
        ok = ok and diff <= BLOCK_EIG_TOL * max(a_norm, 1e-300)
    return CheckResult(
        name="C2",
        anchor="inversion symmetry: diagonal blocks isospectral",
        grids=tuple((p.grid.R, p.grid.N) for p in pieces),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=f"block eigenvalue lists agree to {BLOCK_EIG_TOL} * |A|",
    )


def _check_c3(alpha: float, pieces: Sequence[_GridPieces]) -> CheckResult:
    split_errs, comp_resids, metrics = [], [], []
    for p in pieces:
        A = p.A.entries
        H0, Hi = dz.assemble_model_split(alpha, p.grid)
        a_max = float(np.abs(A).max())
        split = float(np.abs(H0.entries + Hi.entries - A).max()) / a_max
        block_inf, _ = p.blocks
        comp = op_norm(H0.entries - block_inf.entries)
        split_errs.append(split)
        comp_resids.append(comp)
        metrics.append({"split_error": split, "composition_residual": comp})
    ok = all(e <= EXACT_TOL for e in split_errs)
    if len(comp_resids) > 1:
        ok = ok and _strictly_decreasing(comp_resids)
    return CheckResult(
        name="C3",
        anchor="kernel split phi0 + phi_inf and composition identity",
        grids=tuple((p.grid.R, p.grid.N) for p in pieces),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=f"entrywise split <= {EXACT_TOL} * max|A|; composition residual decreasing",
    )


_HS_BATTERY = (
    ("indicator[1,e]", lambda t: ((t >= 1.0) & (t <= math.e)).astype(float)),
    ("gauss_log_bump", lambda t: np.exp(-np.log(t) ** 2)),
    ("t_exp(-t)", lambda t: t * np.exp(-t)),
)


def _check_c4(alpha: float) -> CheckResult:
    # the identity battery is calibrated at (8, 600); the divergence witness
    # doubles the truncation width at fixed step
    g_id = make_grid(8.0, 600)
    Lr = dz.assemble_L_rect(alpha, g_id)
    scale = 2.0 ** (-1.0 - 2.0 * alpha)
    metrics, ok = [], True
    for label, u in _HS_BATTERY:
        lhs = float((dz.assemble_uL(u, Lr).entries ** 2).sum())
        rhs = scale * quad_integral(lambda t: u(t) ** 2 / t, g_id)
        rel = abs(lhs - rhs) / abs(rhs)
        metrics.append({"u": label, "hs_sq": lhs, "integral": rhs, "rel_err": rel})
        ok = ok and rel <= HS_REL_TOL
    del Lr  # freed before the witness's larger assemblies, the suite's memory peak
    fr = []
    for R, N in ((4.0, 600), (8.0, 1200)):
        uL = dz.assemble_uL(np.ones_like, dz.assemble_L_rect(alpha, make_grid(R, N)))
        fr.append(float(np.sqrt((uL.entries**2).sum())))
    ratio = fr[1] / fr[0]
    metrics.append({"u": "constant_1", "hs_R4": fr[0], "hs_R8": fr[1], "ratio": ratio})
    ok = ok and ratio >= HS_WITNESS_RATIO
    return CheckResult(
        name="C4",
        anchor="Hilbert-Schmidt norm identity for uL",
        grids=((8.0, 600), (4.0, 600), (8.0, 1200)),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=f"battery relative error <= {HS_REL_TOL}; witness ratio >= {HS_WITNESS_RATIO}",
    )


def _check_c5(alpha: float, pieces: Sequence[_GridPieces]) -> CheckResult:
    metrics, ok = [], True
    for p in pieces:
        row = {}
        for side, mask in (("zero", p.m0), ("infinity", p.mi)):
            block = p.L.entries[mask, mask]
            if side == "zero":
                block = block[::-1, ::-1]  # ascending in x = -ln t
            d = dz.change_of_variables_diagonal(p.grid, side)
            pushed = d[:, np.newaxis] * block * d[np.newaxis, :]
            H = dz.log_pushforward_hankel(side, alpha, p.grid).entries
            diff = float(np.abs(sym_eigen(pushed) - sym_eigen(H)).max())
            row[f"eig_diff_{side}"] = diff
            ok = ok and diff <= PUSHFORWARD_TOL
        metrics.append(row)
    return CheckResult(
        name="C5",
        anchor="log-variable Hankel equivalence of diagonal blocks",
        grids=tuple((p.grid.R, p.grid.N) for p in pieces),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=f"pushforward eigenvalue agreement <= {PUSHFORWARD_TOL}",
    )


def _check_c6(alpha: float, pieces: Sequence[_GridPieces]) -> CheckResult:
    metrics, ok = [], True
    cross_nucs = []
    for p in pieces:
        row = {}
        for label, block in (
            ("L_00", p.L.entries[p.m0, p.m0]),
            ("L_ii", p.L.entries[p.mi, p.mi]),
            ("A_0i", p.A.entries[p.m0, p.mi]),
        ):
            sv = singular_values(block)
            # the numerical-rank tolerance of the singular values
            floor = max(block.shape) * np.finfo(float).eps * sv[0]
            diag = schatten_diagnostic(sv, floor)
            row[label] = {
                "verdict": diag.verdict,
                "p_fit": diag.p_fit,
                "sigma_ratio_10_1": float(sv[9] / sv[0]) if sv.size >= 10 else 0.0,
            }
            ok = ok and diag.verdict == "super_polynomial"
            if label == "A_0i":
                nuc = float(sv.sum())
                row[label]["nuclear"] = nuc
                cross_nucs.append(nuc)
        metrics.append(row)
    ok = ok and _growth_ok(cross_nucs)
    return CheckResult(
        name="C6",
        anchor="Schatten decay of diagonal L blocks and the A cross block",
        grids=tuple((p.grid.R, p.grid.N) for p in pieces),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=f"super-polynomial decay; cross nuclear growth <= {NUCLEAR_GROWTH_CAP}/step",
    )


def _residual_matrix(p: _GridPieces) -> np.ndarray:
    """Residual of the two-block decomposition of the weighted operator,
    assembled from already-verified pieces."""
    a0, a_inf, _, _ = p.family
    WHA, v = p.weighted
    block_inf, block_0 = p.blocks
    v0, vi = np.zeros_like(v), np.zeros_like(v)
    v0[p.m0] = v[p.m0]
    vi[p.mi] = v[p.mi]
    term0 = v0[:, np.newaxis] * block_inf.entries * v0[np.newaxis, :]
    term_inf = vi[:, np.newaxis] * block_0.entries * vi[np.newaxis, :]
    return WHA.entries - a0 * term0 - a_inf * term_inf


def _check_c7(alpha: float, pieces: Sequence[_GridPieces]) -> CheckResult:
    metrics, nucs = [], []
    for p in pieces:
        sv = singular_values(_residual_matrix(p))
        nuc = float(sv.sum())
        nucs.append(nuc)
        metrics.append({"nuclear": nuc, "op": float(sv[0])})
    ok = _growth_ok(nucs)
    return CheckResult(
        name="C7",
        anchor="trace-class residual of the two-block decomposition",
        grids=tuple((p.grid.R, p.grid.N) for p in pieces),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=f"residual nuclear norm growth <= {NUCLEAR_GROWTH_CAP} per ladder step",
    )


def _c8_items(alpha: float, p: _GridPieces):
    a0, a_inf, b0, b_inf = p.family
    pa = pi_alpha(alpha)
    m0, mi = p.m0, p.mi
    block_inf, block_0 = p.blocks
    b3_zero = block_inf.entries[m0, m0]
    b3_inf = block_0.entries[mi, mi]
    WHA, v = p.weighted
    v0, vi = v[m0], v[mi]
    wb_zero = v0[:, np.newaxis] * b3_zero * v0[np.newaxis, :]
    wb_inf = vi[:, np.newaxis] * b3_inf * vi[np.newaxis, :]
    single = lambda c: predict(alpha, c / pa, 0.0, 1.0, 1.0)
    return (
        ("model", p.A.entries, predict(alpha, 1.0, 1.0, 1.0, 1.0)),
        ("block_zero", b3_zero, single(pa)),
        ("block_infinity", b3_inf, single(pa)),
        ("weighted_block_zero", wb_zero, single(pa * b0**2)),
        ("weighted_block_infinity", wb_inf, single(pa * b_inf**2)),
        ("weighted_hankel", WHA.entries, predict(alpha, a0, a_inf, b0, b_inf)),
    )


def _check_c8(alpha: float, pieces: Sequence[_GridPieces]) -> CheckResult:
    per_item_gaps: Dict[str, List[float]] = {}
    per_item_outliers: Dict[str, List[int]] = {}
    metrics = []
    for p in pieces:
        row = {}
        for label, entries, predicted in _c8_items(alpha, p):
            if not predicted.intervals:
                continue
            rep = analyze(sym_eigen(entries), predicted)
            row[label] = {
                "outliers": len(rep.outliers),
                "max_gap": rep.fill_max_gap,
                "hausdorff": rep.hausdorff,
                "top": float(rep.eigenvalues[-1]),
            }
            per_item_gaps.setdefault(label, []).append(rep.fill_max_gap)
            per_item_outliers.setdefault(label, []).append(len(rep.outliers))
        metrics.append(row)
    ok = True
    for label, counts in per_item_outliers.items():
        if label.startswith("weighted_block"):
            # isolated eigenvalues above the essential spectrum are allowed
            # but must not proliferate under refinement
            ok = ok and counts[-1] <= max(counts[0], 4)
        else:
            ok = ok and all(c == 0 for c in counts)
    if len(pieces) > 1:
        ok = ok and _strictly_decreasing(per_item_gaps["model"])
        for label, gaps in per_item_gaps.items():
            # block fills are pre-asymptotic at coarse grids; they may wiggle
            # but must not grow materially under refinement
            ok = ok and gaps[-1] <= 1.10 * gaps[0] + 1e-12
    return CheckResult(
        name="C8",
        anchor="predicted a.c. interval fill and outlier counts",
        grids=tuple((p.grid.R, p.grid.N) for p in pieces),
        metrics=tuple(metrics),
        verdict="pass" if ok else "fail",
        rule=(
            "zero outliers (bounded for weighted blocks); model fill strictly "
            "decreasing; block fill within 10% of the coarsest step"
        ),
    )


def run_suite(
    alpha,
    ladder: Sequence[Tuple[float, int]],
    checks: Optional[Sequence[str]] = None,
    family: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
) -> VerificationReport:
    """Run the selected checks (all eight by default) over the ladder.

    The ladder must be non-empty and increasing in (R, N); individual check
    failures are recorded and the suite continues.  Reports are deterministic:
    rerunning with identical inputs gives identical output.
    """
    a = check_alpha(alpha)
    ladder = [(float(R), int(N)) for R, N in ladder]
    if not ladder:
        raise DomainError("ladder must be non-empty")
    if any(ladder[i] >= ladder[i + 1] for i in range(len(ladder) - 1)):
        raise DomainError("ladder must be increasing in (R, N)")
    pieces = [_GridPieces(a, make_grid(R, N), family) for R, N in ladder]
    selected = tuple(checks) if checks else CHECK_NAMES
    bad = [c for c in selected if c.upper() not in CHECK_NAMES]
    if bad:
        raise DomainError(f"unknown checks: {bad}; valid names are {CHECK_NAMES}")
    selected = tuple(c.upper() for c in selected)

    runners: Dict[str, Callable[[], CheckResult]] = {
        "C1": lambda: _check_c1(a, pieces),
        "C2": lambda: _check_c2(a, pieces),
        "C3": lambda: _check_c3(a, pieces),
        "C4": lambda: _check_c4(a),
        "C5": lambda: _check_c5(a, pieces),
        "C6": lambda: _check_c6(a, pieces),
        "C7": lambda: _check_c7(a, pieces),
        "C8": lambda: _check_c8(a, pieces),
    }
    results = []
    for name in CHECK_NAMES:
        if name not in selected:
            continue
        try:
            results.append(runners[name]())
        except Exception as exc:  # individual failures recorded, suite continues
            results.append(
                CheckResult(
                    name=name,
                    anchor="(check aborted)",
                    grids=tuple(ladder),
                    metrics=({"error": f"{type(exc).__name__}: {exc}"},),
                    verdict="fail",
                    rule="check must run to completion",
                )
            )
    verdict = "pass" if all(r.verdict == "pass" for r in results) else "fail"
    return VerificationReport(checks=tuple(results), verdict=verdict)
