"""Special-function tests: frozen trivial values, independent oracles
(mpmath log-Gamma, scipy incomplete Gamma, direct quadrature), and the
evenness/monotonicity/split invariants."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import gammainc, gammaincc, gammaln

import hankellab.specfun
from hankellab import (
    DomainError,
    QuadratureError,
    ln_gamma,
    make_grid,
    mellin_symbol,
    pi_alpha,
    psi_minus,
    psi_plus,
    symbol_by_quadrature,
)
from hankellab.specfun import (
    GAMMA_ITMAX,
    GAMMA_TOL,
    _reg_gamma_pair,
    _reg_lower_series,
    _reg_upper_cf,
    check_alpha,
    phi_split,
)

ALPHAS = (-0.25, 0.0, 0.5, 1.0)


class TestLnGamma:
    def test_trivial_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    def test_against_mpmath_on_working_range(self):
        xs = np.concatenate([np.linspace(0.05, 2.0, 150), np.geomspace(2.0, 200.0, 150)])
        worst = max(abs(ln_gamma(float(x)) - float(mpmath.loggamma(float(x)))) for x in xs)
        assert worst <= 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)


class TestGammaAbsSq:
    """|Gamma(1/2 + alpha + i xi)|^2 = Gamma(1 + 2 alpha) mellin_symbol(alpha, xi),
    which the program evaluates through the complex log-Gamma; the factor is 1
    at alpha = 0 and 1/2, and evenness and positivity do not depend on it."""

    def test_trivial_values(self):
        assert mellin_symbol(0.0, 0.0) == pytest.approx(math.pi, abs=1e-13)
        assert mellin_symbol(0.5, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_reflection_oracle_at_alpha_zero(self):
        # |Gamma(1/2 + i xi)|^2 = pi / cosh(pi xi); kept independent of the
        # implementation, which goes through the complex Lanczos log-Gamma
        for xi in np.linspace(-5.0, 5.0, 41):
            assert mellin_symbol(0.0, float(xi)) == pytest.approx(
                math.pi / math.cosh(math.pi * xi), abs=1e-12
            )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_even_and_positive(self, alpha):
        for xi in (0.3, 1.0, 2.5, 4.0):
            v_plus = mellin_symbol(alpha, xi)
            v_minus = mellin_symbol(alpha, -xi)
            assert v_plus > 0.0
            assert v_plus == pytest.approx(v_minus, rel=1e-14)


class TestPiAlpha:
    def test_frozen_values(self):
        assert pi_alpha(0.0) == pytest.approx(math.pi, abs=1e-12)
        assert pi_alpha(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_negative(self):
        expected = math.exp(2.0 * ln_gamma(0.25) - ln_gamma(0.5))
        assert pi_alpha(-0.25) == pytest.approx(expected, rel=1e-14)
        # cross-check against the symbol at the origin
        assert pi_alpha(-0.25) == pytest.approx(mellin_symbol(-0.25, 0.0), rel=1e-13)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            pi_alpha(-0.5)
        for bad in (-0.6, math.inf, math.nan):
            with pytest.raises(DomainError):
                check_alpha(bad)
        assert check_alpha(0.25) == 0.25


class TestMellinSymbol:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_origin_is_pi_alpha(self, alpha):
        assert mellin_symbol(alpha, 0.0) == pytest.approx(pi_alpha(alpha), rel=1e-13)

    def test_large_alpha_does_not_overflow(self):
        # |Gamma(1/2 + alpha + i xi)|^2 alone overflows from alpha ~ 98.6 on
        assert mellin_symbol(200.0, 0.0) == pytest.approx(pi_alpha(200.0), rel=1e-12)

    def test_carleman_closed_form(self):
        for xi in np.linspace(-4.0, 4.0, 33):
            assert mellin_symbol(0.0, float(xi)) == pytest.approx(
                math.pi / math.cosh(math.pi * xi), abs=1e-12
            )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_monotone_on_half_line(self, alpha):
        xis = np.linspace(0.0, 5.0, 26)
        vals = [mellin_symbol(alpha, float(xi)) for xi in xis]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= pi_alpha(alpha) * (1 + 1e-14) for v in vals)


class TestSymbolByQuadrature:
    def test_trivial_values(self):
        assert symbol_by_quadrature(0.0, 0.0) == pytest.approx(math.pi, abs=1e-10)
        assert symbol_by_quadrature(0.5, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert symbol_by_quadrature(0.0, 2.0) == pytest.approx(
            math.pi / math.cosh(2.0 * math.pi), abs=1e-10
        )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_oracle_equivalence_grid(self, alpha):
        # the two independent routes to the multiplier must agree
        xis = np.linspace(-5.0, 5.0, 101)
        worst = max(
            abs(mellin_symbol(alpha, float(xi)) - symbol_by_quadrature(alpha, float(xi)))
            for xi in xis
        )
        assert worst <= 1e-8

    @pytest.mark.parametrize("alpha", [20.0, 200.0])
    @pytest.mark.parametrize("xi", [-5.0, 0.0, 5.0])
    def test_relative_agreement_at_large_alpha(self, alpha, xi):
        # sigma_20(0) = 3.6e-13 and sigma_200(0) = 4.85e-122: an absolute
        # stopping rule or comparison sees no error here at all
        ref = mellin_symbol(alpha, xi)
        assert ref < 1e-12
        assert abs(symbol_by_quadrature(alpha, xi) - ref) <= 1e-12 * ref
        # the stopping rule is relative there: 1e-20 of the value is out of
        # reach, though far above the absolute error
        with pytest.raises(QuadratureError):
            symbol_by_quadrature(alpha, xi, tol=1e-20)

    @pytest.mark.parametrize("xi", [-5.0, 0.0, 5.0])
    def test_window_past_exp_overflow(self, xi):
        # the window 30 / (alpha + 1/2) reaches x = 3750 here, far past the
        # x ~ 709 where e^x overflows; log(1 + e^x) must keep the tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = symbol_by_quadrature(-0.49, xi)
        assert abs(value - mellin_symbol(-0.49, xi)) <= 1e-12


def _series_loop(s, t, tol, itmax):
    """Sum of the ascending series of P(s, t) (without its prefactor), one
    point at a time in scalar arithmetic."""
    if t == 0.0:
        return 0.0
    ap, delt = s, 1.0 / s
    total = delt
    for _ in range(itmax):
        ap += 1.0
        delt *= t / ap
        total += delt
        if not abs(delt) >= abs(total) * tol:
            break
    return total


def _continued_fraction_loop(s, t, tol, itmax):
    """Lentz's continued fraction of Q(s, t) (without its prefactor), one
    point at a time in scalar arithmetic."""
    tiny = 1e-300
    b = t + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, itmax + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delt = d * c
        h *= delt
        if not abs(delt - 1.0) >= tol:
            break
    return h


class TestRegularisedGamma:
    def test_closed_forms(self):
        ts = np.linspace(0.0, 8.0, 33)
        for t in ts:
            assert _reg_gamma_pair(1.0, float(t))[0] == pytest.approx(
                1.0 - math.exp(-t), abs=1e-13
            )
        assert _reg_gamma_pair(1.0, 1.0)[1] == pytest.approx(math.exp(-1.0), abs=1e-14)
        # gamma(2, t) = 1 - (1+t) e^-t
        assert _reg_gamma_pair(2.0, 1.0)[0] == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-14)

    def test_brute_force_quadrature_oracle(self):
        for s, t in [(2.0, 1.0), (0.5, 0.3), (3.0, 7.0), (1.5, 2.5)]:
            target, err = scipy_quad(lambda u: u ** (s - 1.0) * math.exp(-u), 0.0, t)
            target /= math.exp(ln_gamma(s))
            assert _reg_gamma_pair(s, t)[0] == pytest.approx(target, abs=max(1e-12, 10 * err))

    def test_against_scipy_scan(self):
        for s in (0.5, 0.51, 1.0, 2.0, 3.0, 4.0):
            ts = np.concatenate([[0.0], np.geomspace(1e-8, 500.0, 80)])
            p, q = _reg_gamma_pair(s, ts)
            assert np.abs(p - gammainc(s, ts)).max() <= 5e-14
            assert np.abs(q - gammaincc(s, ts)).max() <= 5e-14

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 11.0])
    def test_point_by_point_reference(self, s):
        # the series and the continued fraction iterate on the points not yet
        # converged only; the arithmetic of each point is that of a scalar
        # loop, so the values agree bit for bit
        tol, itmax = GAMMA_TOL, GAMMA_ITMAX
        ts = np.concatenate([[0.0, 1e-300], np.geomspace(1e-6, 400.0, 120), [s + 1.0]])
        series, cf = ts < s + 1.0, ts >= s + 1.0
        sums = np.array([_series_loop(s, t, tol, itmax) for t in ts[series]])
        live = ts[series] > 0.0
        ref = np.zeros_like(sums)
        t = ts[series][live]
        ref[live] = sums[live] * np.exp(-t + s * np.log(t) - ln_gamma(s))
        assert np.array_equal(_reg_lower_series(s, ts[series]), ref)
        t = ts[cf]
        h = np.array([_continued_fraction_loop(s, x, tol, itmax) for x in t])
        ref = np.exp(-t + s * np.log(t) - ln_gamma(s)) * h
        assert np.array_equal(_reg_upper_cf(s, t), ref)

    def test_complementarity_and_endpoints(self):
        for s in (0.5, 1.0, 2.7):
            assert _reg_gamma_pair(s, 0.0) == (0.0, 1.0)
            ts = np.geomspace(1e-6, 1e3, 60)
            total = sum(_reg_gamma_pair(s, ts))
            assert np.abs(total - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 2.0, 5.0])
    def test_fraction_skipped_where_the_prefactor_underflows(self, alpha, monkeypatch):
        # node sums of every 8th node of the (14, 2400) grid: where
        # e^(-t) t^s / Gamma(s) < e^(-746) it is 0 in floating point, so Q is
        # exactly 0 and P exactly 1, and the fraction never sees the point
        nodes = make_grid(14.0, 2400).nodes[::8]
        t = (nodes[:, np.newaxis] + nodes[np.newaxis, :]).ravel()
        s = 1.0 + 2.0 * alpha
        seen = []
        fraction = hankellab.specfun._lentz_fraction

        def spy(s_, t_):
            seen.append(t_.copy())
            return fraction(s_, t_)

        monkeypatch.setattr(hankellab.specfun, "_lentz_fraction", spy)
        p, q = _reg_gamma_pair(s, t)
        dead = -t + s * np.log(t) - gammaln(s) < -746.0
        # most of the continued-fraction points (t >= s + 1) are skipped
        assert dead.sum() >= 0.6 * np.count_nonzero(t >= s + 1.0)
        assert (p[dead] == 1.0).all() and (q[dead] == 0.0).all()
        assert (gammaincc(s, t[dead]) == 0.0).all()
        assert not np.isin(np.concatenate(seen), t[dead]).any()
        # the other points are those of one scalar loop each
        live = np.flatnonzero((t >= s + 1.0) & ~dead)[::50]
        h = np.array([_continued_fraction_loop(s, x, 1e-14, 500) for x in t[live]])
        assert np.array_equal(q[live], np.exp(-t[live] + s * np.log(t[live]) - ln_gamma(s)) * h)

    @pytest.mark.parametrize("alpha", [-0.25, 0.5, 2.0])
    def test_passes_keep_the_bits(self, alpha):
        # node sums of every 4th node of the (14, 2400) grid, 22 passes of
        # GAMMA_CHUNK points, against one call per row, each within one pass
        nodes = make_grid(14.0, 2400).nodes[::4]
        t = nodes[:, np.newaxis] + nodes[np.newaxis, :]
        assert t.size > 20 * hankellab.specfun.GAMMA_CHUNK
        s = 1.0 + 2.0 * alpha
        p, q = _reg_gamma_pair(s, t)
        rows = [_reg_gamma_pair(s, row) for row in t]
        assert np.array_equal(p, np.array([r[0] for r in rows]))
        assert np.array_equal(q, np.array([r[1] for r in rows]))

    def test_domain(self):
        with pytest.raises(DomainError):
            _reg_gamma_pair(0.0, 1.0)
        with pytest.raises(DomainError):
            _reg_gamma_pair(1.0, -0.1)


class TestModelKernels:
    def test_split_at_one(self):
        assert sum(phi_split(0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_split_identity_scan(self, alpha):
        ts = np.geomspace(1e-3, 1e3, 121)
        lhs = sum(phi_split(alpha, ts))
        rhs = ts ** (-1.0 - 2.0 * alpha)
        assert (np.abs(lhs - rhs) <= 1e-10 * rhs).all()
        # phi0 ~ e^-t underflows to exact zero far beyond t ~ 745
        assert (phi_split(alpha, ts)[0] >= 0.0).all()
        assert (phi_split(alpha, ts[ts <= 100.0])[0] > 0.0).all()
        assert (phi_split(alpha, ts)[1] > 0.0).all()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_phi_inf_limit_at_zero(self, alpha):
        limit = math.exp(-ln_gamma(2.0 + 2.0 * alpha))
        assert phi_split(alpha, 1e-9)[1] == pytest.approx(limit, rel=1e-7)

    def test_phi0_closed_form_carleman(self):
        # alpha = 0: phi0(t) = int_1^inf e^{-xt} dx = e^{-t}/t
        assert phi_split(0.0, 2.0)[0] == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-13)
        target, err = scipy_quad(lambda x: math.exp(-2.0 * x), 1.0, 50.0)
        assert phi_split(0.0, 2.0)[0] == pytest.approx(target, rel=1e-10)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_bounds(self, alpha):
        # d^m phi0 decays like e^{-t/2} on [1, 50]; d^m phi_inf is bounded on
        # (0, 1] by the derivative of its defining integral
        h = 1e-4
        for m in range(3):
            ts = np.linspace(1.0, 50.0, 50)
            vals = []
            for t in ts:
                if m == 0:
                    d = phi_split(alpha, t)[0]
                elif m == 1:
                    d = (phi_split(alpha, t + h)[0] - phi_split(alpha, t - h)[0]) / (2 * h)
                else:
                    d = (
                        phi_split(alpha, t + h)[0]
                        - 2 * phi_split(alpha, t)[0]
                        + phi_split(alpha, t - h)[0]
                    ) / h**2
                vals.append(abs(d) * math.exp(t / 2.0))
            # the envelope peaks at the left end of the range
            assert max(vals) <= 2.0 * max(vals[:5])

            ts = np.geomspace(1e-3, 1.0, 40)
            bound = math.exp(-ln_gamma(1.0 + 2.0 * alpha)) / (1.0 + 2.0 * alpha + m)
            hr = 5e-3 if m == 2 else 1e-4  # second differences need a wider step
            for t in ts:
                if m == 0:
                    d = phi_split(alpha, t)[1]
                elif m == 1:
                    d = (phi_split(alpha, t + hr * t)[1] - phi_split(alpha, t - hr * t)[1]) / (2 * hr * t)
                else:
                    d = (
                        phi_split(alpha, t + hr * t)[1]
                        - 2 * phi_split(alpha, t)[1]
                        + phi_split(alpha, t - hr * t)[1]
                    ) / (hr * t) ** 2
                assert abs(d) <= bound * (1.0 + 1e-3) + 1e-6


class TestPsiKernels:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_value_at_zero(self, alpha):
        assert psi_plus(alpha, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert psi_minus(alpha, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_direct_substitution(self):
        assert psi_plus(0.0, 1.0) == pytest.approx(math.exp(0.5) * math.exp(-math.e), rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_positive_and_superexponential(self, alpha):
        ts = np.linspace(0.0, 6.0, 40)  # e^{-e^t} underflows past t ~ 6.6
        vp = psi_plus(alpha, ts)
        assert (vp > 0.0).all()
        # super-exponential decay: e^{2t} psi_+(t) eventually decreases
        boosted = np.exp(2.0 * ts[15:]) * vp[15:]
        assert all(a > b for a, b in zip(boosted, boosted[1:]))
        vm = psi_minus(alpha, ts)
        assert (vm > 0.0).all()
