"""Kernel/weight family tests, and an mpmath oracle for the asymptotic
hypotheses the built-in families meet in closed form."""

import math

import mpmath
import numpy as np
import pytest

from hankellab import (
    DomainError,
    KernelSpec,
    WeightSpec,
    kernel_A,
    kernel_L,
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
            spec_a, spec_w = rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0)
            K = weighted_hankel_kernel(spec_a, spec_w)
            KA = kernel_A(alpha)
            s = np.geomspace(0.01, 100.0, 25)
            lhs = K(s[:, None], s[None, :])
            rhs = KA(s[:, None], s[None, :])
            assert np.abs(lhs - rhs).max() <= 1e-14 * np.abs(rhs).max()

    def test_zero_kernel(self):
        spec_a = KernelSpec(alpha=0.0, eval=lambda t: 0.0 * t, a0=0.0, a_inf=0.0)
        spec_w = rational_test_family(0.0, 1.0, 1.0, 1.0, 1.0)[1]
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


ALPHAS = (-0.25, 0.0, 0.5, 1.0)
NEAR_ZERO = [mpmath.mpf(2) ** -k for k in range(5, 31)]
NEAR_INFINITY = [mpmath.mpf(2) ** k for k in range(5, 31)]
# power and the families with a0 = a_inf or b0 = b_inf have the bound 0: their
# differences are rounding of the 60-digit evaluation
ABS_SLACK = 1e-25


def hypothesis_violations(spec_a, spec_w):
    """Names of the regularity hypotheses behind the predicted a.c. spectrum
    that the pair violates, checked on its closures: mpmath differentiates and
    integrates them at 60 digits.

    For the rational family t^(1+2a) a(t) - a0 = (a_inf - a0) t/(1+t) and
    t^(1+2a) a(t) - a_inf = (a0 - a_inf)/(1+t), so the m-th derivatives are
    bounded by m! |a_inf - a0| t^(1-m) near 0 and by m! |a_inf - a0| t^(-1-m)
    near infinity (margin 1), and u = t^(-a) w(t) = (b0 + b_inf t)/(1+t) is a
    convex combination of b0 and b_inf; the model pair (1, 1, 1, 1) is the
    case with every difference 0.
    """
    failed = set()
    with mpmath.workdps(60):
        p = 1.0 + 2.0 * spec_a.alpha
        jump = abs(spec_a.a_inf - spec_a.a0)
        for end, ts, limit, shift in (
            ("zero", NEAR_ZERO, spec_a.a0, -1),
            ("infinity", NEAR_INFINITY, spec_a.a_inf, 1),
        ):
            g = lambda t: t**p * spec_a.eval(t) - limit
            for m in range(3):
                bound = math.factorial(m) * jump * (1.0 + 1e-12) + ABS_SLACK
                if any(abs(mpmath.diff(g, t, m)) * t ** (m + shift) > bound for t in ts):
                    failed.add(f"kernel_{end}_m{m}")

        alpha, b0, b_inf = spec_w.alpha, spec_w.b0, spec_w.b_inf
        top = max(abs(b0), abs(b_inf))
        if any(abs(t ** (-alpha) * spec_w.eval(t)) > top * (1.0 + 1e-12) for t in NEAR_ZERO + NEAR_INFINITY):
            failed.add("weight_bounded")
        # u - b0 = (b_inf - b0) t/(1+t), u - b_inf = (b0 - b_inf)/(1+t) and
        # |u + b| <= 2 top, so each integral is at most 2 top |b_inf - b0| ln 2
        bound = 2.0 * top * abs(b_inf - b0) * math.log(2.0) * (1.0 + 1e-9) + ABS_SLACK
        excess = lambda t, b: abs(t ** (-2.0 * alpha) * spec_w.eval(t) ** 2 - b * b) / t
        for end, b, interval in (("zero", b0, [0, 1]), ("infinity", b_inf, [1, mpmath.inf])):
            integral = mpmath.quad(lambda t: excess(t, b), interval)
            if not (mpmath.isfinite(integral) and integral <= bound):
                failed.add(f"weight_integral_{end}")
    return sorted(failed)


class TestHypothesisCheck:
    def test_exact_power_kernel_passes_cleanly(self):
        for alpha in ALPHAS:
            assert hypothesis_violations(*rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0)) == [], alpha

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("a0,a_inf", [(0.0, 1.0), (1.0, 1.0), (-1.0, 2.0), (2.0, 0.0)])
    @pytest.mark.parametrize("b0,b_inf", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_rational_family_matrix(self, alpha, a0, a_inf, b0, b_inf):
        spec_a, spec_w = rational_test_family(alpha, a0, a_inf, b0, b_inf)
        assert hypothesis_violations(spec_a, spec_w) == []

    def test_rational_family_full_matrix(self):
        # every tuple of the 4 x 4 x 4 x 3 x 3 test matrix passes: a kernel
        # closure does not read b0, b_inf and a weight closure does not read
        # a0, a_inf, so each kernel and each weight is checked once
        bad = []
        for alpha in ALPHAS:
            for a0 in (0.0, 1.0, -1.0, 2.0):
                for a_inf in (0.0, 1.0, -1.0, 2.0):
                    if hypothesis_violations(*rational_test_family(alpha, a0, a_inf, 1.0, 1.0)):
                        bad.append((alpha, a0, a_inf, "kernel"))
            for b0 in (0.0, 1.0, 2.0):
                for b_inf in (0.0, 1.0, 2.0):
                    if hypothesis_violations(*rational_test_family(alpha, 1.0, 1.0, b0, b_inf)):
                        bad.append((alpha, b0, b_inf, "weight"))
        assert bad == []

    def test_oscillatory_kernel_fails(self):
        alpha = 0.0
        spec_a = KernelSpec(
            alpha=alpha,
            eval=lambda t: t ** (-1.0 - 2.0 * alpha) * (2.0 + mpmath.sin(mpmath.log(t))),
            a0=2.0,
            a_inf=2.0,
        )
        spec_w = rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0)[1]
        failed = hypothesis_violations(spec_a, spec_w)
        assert any(name.startswith("kernel_zero") for name in failed)
        assert any(name.startswith("kernel_infinity") for name in failed)
        assert not any(name.startswith("weight") for name in failed)

    def test_divergent_weight_integral_fails(self):
        alpha = 0.0
        spec_a, _ = rational_test_family(alpha, 1.0, 1.0, 1.0, 1.0)
        # |w|^2 - b0^2 = 1/|log t| near zero: the dt/t integral diverges
        spec_w = WeightSpec(
            alpha=alpha,
            eval=lambda t: mpmath.sqrt(1.0 + 1.0 / abs(mpmath.log(t) - 1e-9)),
            b0=1.0,
            b_inf=1.0,
        )
        failed = hypothesis_violations(spec_a, spec_w)
        assert "weight_integral_zero" in failed
        assert not any(name.startswith("kernel") for name in failed)
