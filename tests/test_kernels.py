"""Kernel/weight family tests and the hypothesis checker."""

import math

import numpy as np
import pytest

from hankellab import (
    DomainError,
    KernelSpec,
    WeightSpec,
    hypothesis_check,
    kernel_A,
    kernel_L,
    power_family,
    rational_test_family,
    weighted_hankel_kernel,
)
from hankellab.specfun import ln_gamma


class TestKernelA:
    def test_carleman_case(self):
        K = kernel_A(0.0)
        for s, t in [(0.5, 2.0), (1.0, 1.0), (3.0, 7.0)]:
            assert K(s, t) == pytest.approx(1.0 / (s + t), rel=1e-15)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    def test_diagonal_value(self, alpha):
        assert kernel_A(alpha)(1.0, 1.0) == pytest.approx(2.0 ** (-1.0 - 2.0 * alpha), rel=1e-15)

    def test_direct_substitution(self):
        assert kernel_A(1.0)(2.0, 3.0) == pytest.approx(6.0 / 125.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [-0.25, 0.3, 1.0])
    def test_symmetric_positive(self, alpha):
        K = kernel_A(alpha)
        s = np.geomspace(0.01, 100.0, 20)
        vals = K(s[:, None], s[None, :])
        assert (vals > 0.0).all()
        assert np.abs(vals - vals.T).max() <= 1e-15 * vals.max()


class TestKernelL:
    def test_carleman_case(self):
        K = kernel_L(0.0)
        for s, t in [(0.5, 2.0), (1.0, 1.0)]:
            assert K(s, t) == pytest.approx(math.exp(-s * t), rel=1e-14)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    def test_diagonal_value(self, alpha):
        expected = math.exp(-1.0) * math.exp(-0.5 * ln_gamma(1.0 + 2.0 * alpha))
        assert kernel_L(alpha)(1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_half_case(self):
        # Gamma(2) = 1, so only the powers remain: 2^(1/2) * 1^(1/2) * e^-2
        assert kernel_L(0.5)(2.0, 1.0) == pytest.approx(math.sqrt(2.0) * math.exp(-2.0), rel=1e-13)


class TestWeightedHankelKernel:
    def test_power_family_reproduces_model(self):
        for alpha in (-0.25, 0.0, 0.5, 1.0):
            spec_a, spec_w = power_family(alpha)
            K = weighted_hankel_kernel(spec_a, spec_w)
            KA = kernel_A(alpha)
            s = np.geomspace(0.01, 100.0, 25)
            lhs = K(s[:, None], s[None, :])
            rhs = KA(s[:, None], s[None, :])
            assert np.abs(lhs - rhs).max() <= 1e-14 * np.abs(rhs).max()

    def test_zero_kernel(self):
        spec_a = KernelSpec(alpha=0.0, eval=lambda t: 0.0 * t, a0=0.0, a_inf=0.0)
        spec_w = power_family(0.0)[1]
        K = weighted_hankel_kernel(spec_a, spec_w)
        assert K(1.0, 2.0) == 0.0

    def test_rational_family_point_value(self):
        spec_a, spec_w = rational_test_family(0.0, 1.0, 2.0, 1.0, 1.0)
        K = weighted_hankel_kernel(spec_a, spec_w)
        # w(1) = 1, a(2) = (1 + 2*2)/(2*3) = 5/6
        assert K(1.0, 1.0) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_alpha_mismatch_rejected(self):
        spec_a = rational_test_family(0.0, 1.0, 1.0, 1.0, 1.0)[0]
        spec_w = rational_test_family(0.5, 1.0, 1.0, 1.0, 1.0)[1]
        with pytest.raises(DomainError):
            weighted_hankel_kernel(spec_a, spec_w)


class TestRationalFamily:
    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    def test_unit_parameters_recover_model(self, alpha):
        spec_a, spec_w = rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0)
        t = np.geomspace(1e-3, 1e3, 50)
        assert np.abs(spec_a.eval(t) - t ** (-1.0 - 2.0 * alpha)).max() <= 1e-14 * np.abs(
            t ** (-1.0 - 2.0 * alpha)
        ).max()
        assert np.abs(spec_w.eval(t) - t**alpha).max() <= 1e-14 * np.abs(t**alpha).max()

    def test_declared_limits(self):
        spec_a, spec_w = rational_test_family(0.5, 2.0, -1.0, 1.0, 3.0)
        t = 1e-10
        assert t ** (1.0 + 2.0 * 0.5) * spec_a.eval(t) == pytest.approx(2.0, rel=1e-9)
        t = 1e10
        assert t ** (1.0 + 2.0 * 0.5) * spec_a.eval(t) == pytest.approx(-1.0, rel=1e-9)
        assert 1e-10 ** (-0.5) * spec_w.eval(1e-10) == pytest.approx(1.0, rel=1e-9)
        assert 1e10 ** (-0.5) * spec_w.eval(1e10) == pytest.approx(3.0, rel=1e-9)


class TestHypothesisCheck:
    def test_exact_power_kernel_passes_cleanly(self):
        spec_a, spec_w = power_family(0.5)
        report = hypothesis_check(spec_a, spec_w)
        assert report.ok
        for cond in report.conditions:
            assert cond.passed, cond.name

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("a0,a_inf", [(0.0, 1.0), (1.0, 1.0), (-1.0, 2.0), (2.0, 0.0)])
    @pytest.mark.parametrize("b0,b_inf", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_rational_family_matrix(self, alpha, a0, a_inf, b0, b_inf):
        spec_a, spec_w = rational_test_family(alpha, a0, a_inf, b0, b_inf)
        report = hypothesis_check(spec_a, spec_w)
        failed = [c.name for c in report.conditions if not c.passed]
        assert report.ok, f"failed conditions: {failed}"

    def test_rational_family_full_matrix(self):
        # every tuple of the declared test matrix passes
        bad = []
        for alpha in (-0.25, 0.0, 0.5, 1.0):
            for a0 in (0.0, 1.0, -1.0, 2.0):
                for a_inf in (0.0, 1.0, -1.0, 2.0):
                    for b0 in (0.0, 1.0, 2.0):
                        for b_inf in (0.0, 1.0, 2.0):
                            spec_a, spec_w = rational_test_family(alpha, a0, a_inf, b0, b_inf)
                            if not hypothesis_check(spec_a, spec_w).ok:
                                bad.append((alpha, a0, a_inf, b0, b_inf))
        assert bad == []

    def test_oscillatory_kernel_fails(self):
        alpha = 0.0
        spec_a = KernelSpec(
            alpha=alpha,
            eval=lambda t: t ** (-1.0 - 2.0 * alpha) * (2.0 + np.sin(np.log(t))),
            a0=2.0,
            a_inf=2.0,
        )
        spec_w = power_family(alpha)[1]
        report = hypothesis_check(spec_a, spec_w)
        assert not report.ok
        failed = {c.name for c in report.conditions if not c.passed}
        assert any(name.startswith("kernel_zero") for name in failed)
        assert any(name.startswith("kernel_infinity") for name in failed)

    def test_divergent_weight_integral_fails(self):
        alpha = 0.0
        spec_a, _ = rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0)
        # |w|^2 - b0^2 = 1/|log t| near zero: the dt/t integral diverges
        spec_w = WeightSpec(
            alpha=alpha,
            eval=lambda t: np.sqrt(1.0 + 1.0 / np.abs(np.log(t) - 1e-9)),
            b0=1.0,
            b_inf=1.0,
        )
        report = hypothesis_check(spec_a, spec_w)
        failed = {c.name for c in report.conditions if not c.passed}
        assert "weight_integral_zero" in failed

    def test_report_serialises(self):
        spec_a, spec_w = rational_test_family(0.0, 1.0, 0.0, 1.0, 1.0)
        payload = hypothesis_check(spec_a, spec_w).as_dict()
        assert payload["ok"] is True
        assert {c["name"] for c in payload["conditions"]} >= {"weight_bounded"}
