"""Prediction/diagnostic tests: interval construction conventions, fill and
outlier metrics, the two-block counting discrepancy, Schatten verdicts."""

import math

import numpy as np
import pytest

from hankellab import (
    DomainError,
    analyze,
    make_grid,
    pi_alpha,
    predict,
    schatten_diagnostic,
    singular_values,
    sym_eigen,
)
from hankellab.discretize import assemble_A, assemble_L
from hankellab.spectra import _interval_hausdorff

LADDER = [(6.0, 200), (8.0, 400), (10.0, 800)]


class TestPredict:
    def test_model_case_multiplicity_two(self):
        p = predict(0.0, 1.0, 1.0, 1.0, 1.0)
        assert len(p.intervals) == 1
        iv = p.intervals[0]
        assert (iv.lo, iv.multiplicity) == (0.0, 2)
        assert iv.hi == pytest.approx(math.pi, abs=1e-12)

    def test_drop_convention(self):
        p = predict(0.5, 1.0, 0.0, 1.0, 1.0)
        assert len(p.intervals) == 1
        iv = p.intervals[0]
        assert iv.multiplicity == 1
        assert iv.hi == pytest.approx(1.0, abs=1e-12)

    def test_orientation_convention(self):
        p = predict(0.0, 1.0, -1.0, 1.0, 1.0)
        endpoints = sorted((iv.lo, iv.hi) for iv in p.intervals)
        assert endpoints[0][0] == pytest.approx(-math.pi, abs=1e-12)
        assert endpoints[0][1] == 0.0
        assert endpoints[1][1] == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    def test_unit_endpoint_is_pi_alpha(self, alpha):
        p = predict(alpha, 1.0, 1.0, 1.0, 1.0)
        assert p.intervals[0].hi == pytest.approx(pi_alpha(alpha), abs=1e-12)

    @pytest.mark.parametrize(
        "a0,a_inf,b0,b_inf", [(1.0, 2.0, 1.0, 1.0), (0.0, 1.0, 2.0, 1.0), (1.0, -1.0, 1.0, 2.0)]
    )
    def test_swap_invariance(self, a0, a_inf, b0, b_inf):
        p1 = predict(0.25, a0, a_inf, b0, b_inf)
        p2 = predict(0.25, a_inf, a0, b_inf, b0)
        ends1 = sorted((iv.lo, iv.hi) for iv in p1.intervals)
        ends2 = sorted((iv.lo, iv.hi) for iv in p2.intervals)
        assert ends1 == pytest.approx(ends2)

    def test_both_zero_gives_empty(self):
        assert predict(0.0, 0.0, 0.0, 1.0, 1.0).intervals == ()


class TestAnalyze:
    def test_uniform_fill(self):
        pred = predict(0.0, 1.0, 1.0, 1.0, 1.0)
        eigs = np.linspace(0.0, math.pi, 101)
        rep = analyze(eigs, pred, delta=0.05, interior_margin=0.1)
        assert rep.outliers == ()
        assert rep.fill_max_gap == pytest.approx(math.pi / 100.0, rel=1e-10)
        assert rep.hausdorff <= math.pi / 200.0 + 1e-12

    def test_single_far_eigenvalue_is_outlier(self):
        pred = predict(0.0, 1.0, 1.0, 1.0, 1.0)
        rep = analyze([5.0], pred, delta=0.1, interior_margin=0.1)
        assert rep.outliers == (5.0,)

    @pytest.mark.parametrize("family", [(1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0)])
    def test_distance_matches_the_scalar_rule(self, family):
        # oracle: max(lo - x, x - hi, 0) minimised over the intervals, one
        # Python float at a time (|x| with no interval)
        pred = predict(0.0, *family)
        x = np.linspace(-5.0, 5.0, 1001)
        expected = [
            min((max(i.lo - e, e - i.hi, 0.0) for i in pred.intervals), default=abs(e))
            for e in x.tolist()
        ]
        assert pred.distance(x).tolist() == expected
        assert float(pred.distance(x[900])) == expected[900]  # a scalar too

    def test_monotone_in_delta(self):
        pred = predict(0.0, 1.0, 1.0, 1.0, 1.0)
        eigs = np.concatenate([np.linspace(0, math.pi, 40), [3.3, 3.5, 4.0]])
        counts = [
            len(analyze(eigs, pred, delta=d, interior_margin=0.1).outliers)
            for d in (0.05, 0.2, 0.4, 0.9)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_model_ladder_frozen_metrics(self):
        # regression values for this discretisation (the truncation at
        # [e^-R, e^R] spaces eigenvalues ~ |sigma'| pi/(2R), so the interior
        # gaps are O(1) at R = 10 and shrink like 1/R)
        pred = predict(0.0, 1.0, 1.0, 1.0, 1.0)
        gaps, haus = [], []
        for R, N in LADDER:
            eigs = sym_eigen(assemble_A(0.0, make_grid(R, N)))
            rep = analyze(eigs, pred)
            assert rep.outliers == ()
            gaps.append(rep.fill_max_gap)
            haus.append(rep.hausdorff)
        assert gaps == pytest.approx([0.982984, 0.757409, 0.649294], abs=1e-4)
        assert haus == pytest.approx([0.491492, 0.378705, 0.324647], abs=1e-4)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(b < a for a, b in zip(haus, haus[1:]))

    def test_default_delta_and_margin(self):
        pred = predict(0.0, 1.0, 1.0, 1.0, 1.0)
        rep = analyze([1.0, 2.0], pred)
        assert rep.delta == pytest.approx(0.05 * math.pi)
        assert rep.interior_margin == pytest.approx(0.1 * math.pi)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            analyze([], predict(0.0, 1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("margin", [math.pi / 2, 2.0, math.inf])
    def test_margin_emptying_every_interval_rejected(self, margin):
        # a fill gap and Hausdorff distance of 0.0 over no interval would
        # read as a perfect fill
        with pytest.raises(DomainError):
            analyze([1.0, 2.0], predict(0.0, 1.0, 1.0, 1.0, 1.0), interior_margin=margin)

    def test_margin_emptying_one_interval_keeps_the_other(self):
        pred = predict(0.0, 1.0, 0.25, 1.0, 1.0)  # [0, pi] and [0, pi / 4]
        rep = analyze(np.linspace(0.0, math.pi, 9), pred, interior_margin=0.5)
        assert rep.fill_max_gap == pytest.approx(math.pi / 8)

    def test_hausdorff_sees_eigenvalue_outside_interval(self):
        # the sup over [0, 1] sits at 0.495, midway between -0.01 and 1.0
        assert _interval_hausdorff(np.array([-0.01, 1.0]), 0.0, 1.0) == pytest.approx(0.505)

    def test_hausdorff_matches_dense_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            eigs = np.sort(rng.uniform(-1.0, 2.0, rng.integers(1, 8)))
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            xs = np.linspace(lo, hi, 20001)
            sampled = np.abs(xs[:, np.newaxis] - eigs[np.newaxis, :]).min(axis=1).max()
            # the distance has slope 1, so sampling misses at most half a step
            haus = _interval_hausdorff(eigs, lo, hi)
            assert sampled - 1e-12 <= haus <= sampled + 0.5 * (xs[1] - xs[0]) + 1e-12


class TestCountingCompare:
    def test_true_coupling_bounded_discrepancy(self):
        # trace-class coupling moves O(1) eigenvalues per window: the
        # counting function N(lam) = #{eigenvalues > lam} of A stays within
        # 8 of the sum of its two diagonal blocks' counting functions
        grid = make_grid(8.0, 400)
        A = assemble_A(0.0, grid).entries
        m0, mi = grid.side("zero"), grid.side("infinity")
        full = sym_eigen(A)
        blocks = np.concatenate([sym_eigen(A[m0, m0]), sym_eigen(A[mi, mi])])
        lam = np.linspace(0.3, 2.8, 26)[:, np.newaxis]
        discrepancy = (full > lam).sum(axis=1) - (blocks > lam).sum(axis=1)
        assert np.abs(discrepancy).max() <= 8


class TestSchattenDiagnostic:
    def test_geometric_decay_is_super_polynomial(self):
        sv = 2.0 ** -np.arange(1, 40, dtype=float)
        diag = schatten_diagnostic(sv, 1e-9 * sv[0])
        assert diag.verdict == "super_polynomial"

    def test_polynomial_decay_detected(self):
        sv = np.arange(1, 200, dtype=float) ** -2.0
        diag = schatten_diagnostic(sv, 1e-9 * sv[0])
        assert diag.verdict == "polynomial"
        assert diag.p_fit == pytest.approx(-2.0, abs=1e-6)

    def test_non_summable_flagged(self):
        sv = np.arange(1, 200, dtype=float) ** -0.5
        diag = schatten_diagnostic(sv, 1e-9 * sv[0])
        assert diag.verdict == "non_summable_suspect"

    def test_factor_block_super_polynomial(self):
        grid = make_grid(8.0, 400)
        L = assemble_L(0.0, grid)
        m0 = grid.side("zero")
        block = L.entries[m0, m0]
        sv = singular_values(block)
        diag = schatten_diagnostic(sv, max(block.shape) * np.finfo(float).eps * sv[0])
        assert diag.verdict == "super_polynomial"

    def test_insufficient_data(self):
        diag = schatten_diagnostic(np.array([1.0, 0.5, 0.1]), 1e-9)
        assert diag.verdict == "insufficient_data"

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            schatten_diagnostic(np.array([1.0, 2.0]), 0.0)
