"""Acceptance suite: one test (or clause group) per criterion, each printing
a PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
every verdict line.

Criteria 5 and 10 contain interval-fill caps that are not attainable on the
pinned grids: the truncation [e^-R, e^R] spaces eigenvalues like
|sigma'| * pi / (2R), giving interior gaps ~0.65 for the Carleman operator at
R = 10 against the stated cap 0.1 (R ~ 77 would be needed).  Those clauses
are implemented exactly as stated and are expected to fail; the measured
values are printed.  Everything else passes.
"""

import json
import math

import numpy as np
import pytest

from hankellab import (
    frobenius_norm,
    make_grid,
    mellin_symbol,
    nuclear_norm,
    op_norm,
    pi_alpha,
    predict,
    singular_values,
    sym_eigen,
    symbol_by_quadrature,
)
from hankellab.cli import main
from hankellab.discretize import (
    assemble_A,
    assemble_L,
    assemble_L_rect,
    assemble_model_split,
    assemble_uL,
    assemble_wHa,
    composed_block,
    log_pushforward_hankel,
    operator_square,
    project,
    projection_mask,
)
from hankellab.kernels import rational_test_family
from hankellab.spectra import analyze, schatten_diagnostic
from hankellab.verify import _GridPieces, _residual_matrix

LADDER = [(6.0, 200), (8.0, 400), (10.0, 800)]
SYMBOL_ALPHAS = (-0.25, 0.0, 0.5, 1.0)
MODEL_ALPHAS = (0.0, 0.5)
FAMILIES = ((1, 1, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, -1, 1, 1), (2, 1, 1, 2))

_MODEL_EIGS = {}
_FAMILY_RUNS = {}


def verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def model_eigs(alpha, R, N):
    key = (alpha, R, N)
    if key not in _MODEL_EIGS:
        _MODEL_EIGS[key] = sym_eigen(assemble_A(alpha, make_grid(R, N)))
    return _MODEL_EIGS[key]


def family_run(family, alpha):
    """Eigenvalues of the weighted Hankel matrix and analyze() metrics per
    ladder step, cached across criteria 10 and 11."""
    key = (family, alpha)
    if key not in _FAMILY_RUNS:
        a0, a_inf, b0, b_inf = family
        spec_a, spec_w = rational_test_family(alpha, a0, a_inf, b0, b_inf)
        predicted = predict(alpha, a0, a_inf, b0, b_inf)
        steps = []
        for R, N in LADDER:
            grid = make_grid(R, N)
            eigs = sym_eigen(assemble_wHa(spec_a, spec_w, grid))
            rep = analyze(eigs, predicted)
            steps.append(rep)
        _FAMILY_RUNS[key] = (predicted, steps)
    return _FAMILY_RUNS[key]


class TestCriterion01:
    def test_symbol_agreement(self):
        xi_grid = np.arange(-50, 51) / 10.0
        worst = {}
        for alpha in SYMBOL_ALPHAS:
            worst[alpha] = max(
                abs(mellin_symbol(alpha, float(xi)) - symbol_by_quadrature(alpha, float(xi)))
                for xi in xi_grid
            )
        ok = all(w <= 1e-8 for w in worst.values())
        worst_carleman = max(
            abs(mellin_symbol(0.0, float(xi)) - math.pi / math.cosh(math.pi * float(xi)))
            for xi in xi_grid
        )
        ok = ok and worst_carleman <= 1e-10
        assert verdict(
            1,
            ok,
            f"max |symbol - quadrature| = {max(worst.values()):.2e} (cap 1e-8); "
            f"closed form at alpha=0: {worst_carleman:.2e} (cap 1e-10)",
        )


class TestCriterion02:
    def test_pi_alpha_values(self):
        e0 = abs(pi_alpha(0.0) - math.pi)
        e1 = abs(pi_alpha(0.5) - 1.0)
        assert verdict(2, e0 <= 1e-12 and e1 <= 1e-12, f"|pi_0 - pi| = {e0:.2e}, |pi_1/2 - 1| = {e1:.2e}")


class TestCriterion03:
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_factorisation_ladder(self, alpha):
        resids = []
        for R, N in LADDER:
            grid = make_grid(R, N)
            A = assemble_A(alpha, grid)
            resids.append(op_norm(operator_square(assemble_L_rect(alpha, grid)).entries - A.entries) / op_norm(A))
        ok = resids[1] <= 1e-2 and all(b < a for a, b in zip(resids, resids[1:]))
        assert verdict(
            3, ok, f"alpha={alpha}: residuals {['%.2e' % r for r in resids]} (cap 1e-2 at (8,400), strictly decreasing)"
        )


class TestCriterion04:
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_block_similarity_every_step(self, alpha):
        worst = 0.0
        for R, N in LADDER:
            grid = make_grid(R, N)
            A = assemble_A(alpha, grid)
            m0 = projection_mask(grid, "zero")
            mi = projection_mask(grid, "infinity")
            e0 = sym_eigen(project(A, m0, m0))
            ei = sym_eigen(project(A, mi, mi))
            norm = max(abs(e0[0]), abs(e0[-1]))
            worst = max(worst, float(np.abs(e0 - ei).max()) / norm)
        assert verdict(4, worst <= 1e-10, f"alpha={alpha}: worst relative eigenvalue deviation {worst:.2e} (cap 1e-10)")


class TestCriterion05:
    @pytest.mark.parametrize("alpha,endpoint", [(0.0, math.pi), (0.5, 1.0)])
    def test_eigenvalue_range(self, alpha, endpoint):
        eigs = model_eigs(alpha, 10.0, 800)
        ok = eigs[0] >= -1e-8 and eigs[-1] <= endpoint + 0.05
        assert verdict(
            5, ok, f"alpha={alpha}: eigenvalues in [{eigs[0]:.2e}, {eigs[-1]:.6f}] vs [-1e-8, {endpoint + 0.05:.4f}]"
        )

    @pytest.mark.parametrize("alpha,endpoint", [(0.0, math.pi), (0.5, 1.0)])
    def test_metrics_improve_under_refinement(self, alpha, endpoint):
        pred = predict(alpha, 1.0, 1.0, 1.0, 1.0)
        gaps, haus = [], []
        for R, N in LADDER:
            rep = analyze(model_eigs(alpha, R, N), pred)
            gaps.append(rep.fill_max_gap)
            haus.append(rep.hausdorff)
        ok = all(b < a for a, b in zip(gaps, gaps[1:])) and all(
            b < a for a, b in zip(haus, haus[1:])
        )
        assert verdict(
            5, ok, f"alpha={alpha}: gaps {['%.3f' % g for g in gaps]}, hausdorff {['%.3f' % h for h in haus]} both decreasing"
        )

    @pytest.mark.parametrize("alpha,endpoint", [(0.0, math.pi), (0.5, 1.0)])
    def test_interior_gap_cap(self, alpha, endpoint):
        # stated cap: max interior gap (margin 0.1 * endpoint) <= 0.1 at
        # (10, 800); unattainable on this truncation (see module docstring)
        pred = predict(alpha, 1.0, 1.0, 1.0, 1.0)
        rep = analyze(model_eigs(alpha, 10.0, 800), pred)
        ok = rep.fill_max_gap <= 0.1
        assert verdict(
            5, ok, f"alpha={alpha}: max interior gap {rep.fill_max_gap:.3f} vs stated cap 0.1 at (10,800)"
        )


class TestCriterion06:
    def test_hilbert_schmidt_identity(self):
        grid = make_grid(4.0, 600)
        u = lambda t: ((t >= 1.0) & (t <= math.e)).astype(float)
        lhs = frobenius_norm(assemble_uL(u, assemble_L_rect(0.0, grid))) ** 2
        rel = abs(lhs - 0.5) / 0.5
        ok = rel <= 2e-2
        fr = [
            frobenius_norm(assemble_uL(lambda t: np.ones_like(t), assemble_L_rect(0.0, make_grid(R, N))))
            for R, N in ((4.0, 600), (8.0, 1200))
        ]
        ratio = fr[1] / fr[0]
        ok = ok and ratio >= 1.3
        assert verdict(
            6, ok, f"|uL|_HS^2 = {lhs:.5f} vs 0.5 (rel {rel:.2%}, cap 2%); divergence ratio {ratio:.3f} (>= 1.3)"
        )


class TestCriterion07:
    def test_compactness(self):
        grid = make_grid(8.0, 400)
        L = assemble_L(0.0, grid)
        m0 = projection_mask(grid, "zero")
        block = project(L, m0, m0)
        sv = singular_values(block)
        ratio = sv[9] / sv[0]
        diag = schatten_diagnostic(sv, max(block.shape) * np.finfo(float).eps * sv[0])
        nucs = []
        for R, N in LADDER:
            g = make_grid(R, N)
            A = assemble_A(0.0, g)
            nucs.append(
                nuclear_norm(project(A, projection_mask(g, "zero"), projection_mask(g, "infinity")))
            )
        growth_ok = all(b <= 1.10 * a for a, b in zip(nucs, nucs[1:]))
        ok = ratio < 1e-6 and diag.verdict == "super_polynomial" and growth_ok
        assert verdict(
            7,
            ok,
            f"sigma_10/sigma_1 = {ratio:.2e} (cap 1e-6), verdict {diag.verdict}; cross nuclear {['%.4f' % n for n in nucs]} (growth <= 10%)",
        )


class TestCriterion08:
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_split_and_composition(self, alpha):
        split_worst, comps = 0.0, []
        for R, N in LADDER:
            grid = make_grid(R, N)
            A = assemble_A(alpha, grid)
            H0, Hi = assemble_model_split(alpha, grid)
            split_worst = max(
                split_worst,
                float(np.abs(H0.entries + Hi.entries - A.entries).max())
                / float(np.abs(A.entries).max()),
            )
            comps.append(op_norm(H0.entries - composed_block(assemble_L_rect(alpha, grid), "infinity").entries))
        ok = split_worst <= 1e-11 and all(b < a for a, b in zip(comps, comps[1:]))
        assert verdict(
            8,
            ok,
            f"alpha={alpha}: split error {split_worst:.2e} (cap 1e-11); composition residuals {['%.2e' % c for c in comps]} decreasing",
        )


class TestCriterion09:
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_pushforward_equivalence(self, alpha):
        grid = make_grid(8.0, 400)
        L = assemble_L(alpha, grid)
        mi = projection_mask(grid, "infinity")
        block_eigs = sym_eigen(project(L, mi, mi))
        hank_eigs = sym_eigen(log_pushforward_hankel("infinity", alpha, grid))
        diff = float(np.abs(block_eigs - hank_eigs).max())
        assert verdict(9, diff <= 1e-6, f"alpha={alpha}: eigenvalue agreement {diff:.2e} (cap 1e-6)")


class TestCriterion10:
    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_predicted_endpoints(self, family, alpha):
        a0, a_inf, b0, b_inf = family
        predicted, _ = family_run(family, alpha)
        hand = {pi_alpha(alpha) * a0 * b0**2, pi_alpha(alpha) * a_inf * b_inf**2}
        hand.discard(0.0)
        got = set()
        for iv in predicted.intervals:
            got.add(iv.lo if iv.lo != 0.0 else iv.hi)
            if iv.multiplicity == 2:
                pass  # merged pair represents both ends
        ok = all(min(abs(g - h) for g in got) <= 1e-12 for h in hand)
        assert verdict(10, ok, f"{family}@alpha={alpha}: endpoints match hand-computed products to 1e-12")

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_zero_outliers_at_finest(self, family, alpha):
        _, steps = family_run(family, alpha)
        counts = [len(rep.outliers) for rep in steps]
        ok = counts[-1] == 0 and all(b <= a for a, b in zip(counts, counts[1:]))
        assert verdict(
            10, ok, f"{family}@alpha={alpha}: outliers per step {counts} (0 at (10,800), non-increasing)"
        )

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_fill_gap_cap(self, family, alpha):
        # stated cap 0.1 * max endpoint at (10,800); unattainable on this
        # truncation (see module docstring)
        predicted, steps = family_run(family, alpha)
        cap = 0.1 * predicted.max_endpoint
        gaps = [rep.fill_max_gap for rep in steps]
        ok = gaps[-1] <= cap and all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert verdict(
            10,
            ok,
            f"{family}@alpha={alpha}: gaps {['%.3f' % g for g in gaps]} vs cap {cap:.3f}, improving",
        )


class TestCriterion11:
    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    @pytest.mark.parametrize("alpha", MODEL_ALPHAS)
    def test_residual_nuclear_bounded(self, family, alpha):
        nucs = []
        for R, N in LADDER:
            T = _residual_matrix(_GridPieces(alpha, make_grid(R, N), family))
            nucs.append(nuclear_norm(T))
        ok = all(b <= 1.10 * a for a, b in zip(nucs, nucs[1:]))
        assert verdict(
            11, ok, f"{family}@alpha={alpha}: residual nuclear norms {['%.4f' % n for n in nucs]} (growth <= 10%)"
        )


class TestCriterion12:
    def test_verify_reports_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.0, "ladder": [[6, 200], [8, 400], [10, 800]]}))
        code1 = main(["verify", "--config", str(config), "--out", str(out1)])
        code2 = main(["verify", "--config", str(config), "--out", str(out2)])
        b1 = (out1 / "verification_report.json").read_bytes()
        b2 = (out2 / "verification_report.json").read_bytes()
        ok = code1 == code2 == 0 and b1 == b2
        assert verdict(
            12, ok, f"two cmd_verify runs: exit codes ({code1}, {code2}), reports identical: {b1 == b2}"
        )
