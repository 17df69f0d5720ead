"""Special-function evaluations used throughout the package.

Everything here is self-contained (no scipy): log-Gamma on the positive axis
and on vertical lines via a fixed Lanczos approximation, the regularised
incomplete Gamma pair P/Q via the standard series/continued-fraction split,
the Mellin multiplier of the model operator family, and the model kernels
phi0/phi_inf and psi+/psi- obtained from them.

All functions accept scalars or numpy arrays where that is meaningful and are
pure; they are safe to call concurrently.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = [
    "check_alpha",
    "ln_gamma",
    "pi_alpha",
    "mellin_symbol",
    "symbol_by_quadrature",
    "phi_split",
    "psi_plus",
    "psi_minus",
]


def check_alpha(alpha) -> float:
    """Coerce to float and enforce -1/2 < alpha < inf."""
    a = float(alpha)
    if not -0.5 < a < math.inf:
        raise DomainError(f"alpha must be finite and > -1/2, got {a}")
    return a


# Lanczos coefficients, g = 7, n = 9.  Relative error of Gamma below 1e-13 on
# the half-plane Re z > 0.5 after the shift below.
_LANCZOS_G = 7.5
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Absolute error below 1e-12 on [0.05, 200]; arguments below 0.5 are shifted
    with Gamma(x+1) = x Gamma(x).
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    shift = 0.0
    while x < 0.5:
        shift -= math.log(x)
        x += 1.0
    z = x - 1.0
    series = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G
    return shift + _LOG_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(series)


def _ln_gamma_complex(z: complex) -> complex:
    """Principal branch of log Gamma for Re z > 0 (same Lanczos data)."""
    if z.real < 0.5:
        return _ln_gamma_complex(z + 1.0) - cmath.log(z)
    zz = z - 1.0
    series = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(series)


def pi_alpha(alpha) -> float:
    """Gamma(1/2+alpha)^2 / Gamma(1+2 alpha): top of the model spectrum."""
    a = check_alpha(alpha)
    return math.exp(2.0 * ln_gamma(0.5 + a) - ln_gamma(1.0 + 2.0 * a))


def mellin_symbol(alpha, xi: float) -> float:
    """Multiplier sigma_alpha(xi) = |Gamma(1/2+alpha+i xi)|^2 / Gamma(1+2 alpha).

    The model operator with kernel s^a t^a (s+t)^(-1-2a) is unitarily
    equivalent to multiplication by this function; its range is (0, pi_alpha].
    The logs are subtracted before exp: each Gamma factor alone overflows
    from alpha ~ 98.6 on.
    """
    a = check_alpha(alpha)
    ln_abs_sq = 2.0 * _ln_gamma_complex(complex(0.5 + a, float(xi))).real
    return math.exp(ln_abs_sq - ln_gamma(1.0 + 2.0 * a))


def _symbol_trapezoid(a: float, xi: float, half_width: float, step: float) -> Tuple[float, float]:
    """The trapezoid rule for the modulus of the integral and for the
    integral of the modulus of the integrand."""
    n = int(math.ceil(2.0 * half_width / step))
    x = -half_width + step * np.arange(n + 1)
    # integrand of int_0^inf s^a (1+s)^(-1-2a) s^(-1/2+i xi) ds after s = e^x
    modulus = np.exp((a + 0.5) * x - (1.0 + 2.0 * a) * np.logaddexp(0.0, x))
    f = modulus * np.exp(1j * xi * x)
    total = f.sum() - 0.5 * (f[0] + f[-1])
    return abs(step * total), step * (modulus.sum() - 0.5 * (modulus[0] + modulus[-1]))


def symbol_by_quadrature(alpha, xi: float, tol: float = 1e-9) -> float:
    """Independent evaluation of the Mellin multiplier by direct quadrature.

    Integrates s^alpha (1+s)^(-1-2 alpha) s^(-1/2 + i xi) over the half-line in
    the log variable with the trapezoid rule (the integrand is analytic and
    decays like e^{-(alpha+1/2)|x|}, so the rule converges super-algebraically).
    The modulus of the integral is returned; the window grows like
    1/(alpha + 1/2) so the truncation tail stays small.  Two refinements
    must agree to ``tol`` times min(1, I), I = sigma_alpha(0) the integral
    of the modulus of the integrand: relative where I < 1 (from alpha ~ 20
    on I < 1e-12, where an absolute test sees no error), never looser than
    an absolute ``tol``.  A test relative to the value itself could not be
    met where e^(i xi x) cancels the integral far below I
    (sigma_-0.49(5) ~ 1e-9 against I ~ 100): the sum's rounding alone is
    about eps * I.
    """
    a = check_alpha(alpha)
    xi = float(xi)
    half_width = max(40.0, 30.0 / (a + 0.5))
    # keep at least 40 points per oscillation period of e^{i xi x}
    step = min(0.05, 2.0 * math.pi / (40.0 * max(abs(xi), 1.0)))
    coarse, _ = _symbol_trapezoid(a, xi, half_width, step)
    fine, l1 = _symbol_trapezoid(a, xi, 1.25 * half_width, 0.5 * step)
    estimate = abs(fine - coarse)
    if not estimate <= tol * min(1.0, l1):
        raise QuadratureError(
            f"symbol quadrature did not converge at alpha={a}, xi={xi}",
            error_estimate=estimate,
        )
    return fine


def _check_gamma_args(s, t):
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"incomplete Gamma requires s > 0, got {s}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("incomplete Gamma requires t >= 0")
    return s, t_arr


def _log_prefactor(s: float, t: np.ndarray) -> np.ndarray:
    """e^(-t) t^s / Gamma(s) on positive t, formed in one array: s ln t - t -
    ln Gamma(s) has the bits of -t + s ln t - ln Gamma(s) (x - t is x + (-t)
    exactly)."""
    out = np.log(t)
    out *= s
    out -= t
    out -= ln_gamma(s)
    return np.exp(out, out=out)


def _compact(going: np.ndarray, arrays):
    """The entries of each array where ``going`` holds, moved to its front
    in order, as views of that prefix: no array is copied whole."""
    k = int(np.count_nonzero(going))
    for arr in arrays:
        arr[:k] = arr[going]
    return [arr[:k] for arr in arrays]


def _reg_lower_series(s: float, t: np.ndarray, tol: float, itmax: int) -> np.ndarray:
    """P(s,t) by the ascending series, valid for t < s+1.  Each step works on
    the points still short of convergence only, so the term denominator s + i
    is one scalar; its arrays are updated in place, with the points still
    iterating kept at their front."""
    positive = t > 0.0
    total = np.zeros_like(t)
    idx = np.flatnonzero(positive)
    t_a = t[idx]
    delt = np.full(idx.size, 1.0 / s)
    acc = delt.copy()
    buf, scale = np.empty_like(delt), np.empty_like(delt)
    going = np.empty(idx.size, dtype=bool)
    ap = s
    for _ in range(itmax):
        if not idx.size:
            break
        ap += 1.0
        delt *= np.divide(t_a, ap, out=buf)
        acc += delt
        np.abs(acc, out=scale)
        scale *= tol
        np.greater_equal(np.abs(delt, out=buf), scale, out=going)
        if not going.all():
            total[idx[~going]] = acc[~going]
            idx, t_a, delt, acc, buf, scale = _compact(going, [idx, t_a, delt, acc, buf, scale])
            going = going[: idx.size]
    total[idx] = acc
    del idx, t_a, delt, acc, buf, scale, going  # their whole buffers go before the prefactor
    live = np.flatnonzero(positive)
    total[live] *= _log_prefactor(s, t[live])
    return total


def _lentz_fraction(s: float, t: np.ndarray, tol: float, itmax: int) -> np.ndarray:
    """The continued fraction of Q(s,t) / (e^(-t) t^s / Gamma(s)) by Lentz's
    method.  Each step works on the points still short of convergence only;
    its arrays are updated in place, with the points still iterating kept at
    their front, and with the bits of the textbook steps d = an d + b,
    c = b + an / c, d = 1 / d."""
    tiny = 1e-300
    h = np.empty_like(t)
    idx = np.arange(t.size)
    b = t + 1.0 - s
    c = np.full_like(t, 1.0 / tiny)
    d = 1.0 / b
    h_a = d.copy()
    delt = np.empty_like(t)
    mask = np.empty(t.size, dtype=bool)
    for i in range(1, itmax + 1):
        if not idx.size:
            break
        an = -i * (i - s)
        b += 2.0
        d *= an
        d += b
        np.copyto(d, tiny, where=np.less(np.abs(d, out=delt), tiny, out=mask))
        np.divide(an, c, out=c)
        c += b
        np.copyto(c, tiny, where=np.less(np.abs(c, out=delt), tiny, out=mask))
        np.divide(1.0, d, out=d)
        np.multiply(d, c, out=delt)
        h_a *= delt
        delt -= 1.0
        going = np.greater_equal(np.abs(delt, out=delt), tol, out=mask)
        if not going.all():
            h[idx[~going]] = h_a[~going]
            idx, b, c, d, h_a, delt = _compact(going, [idx, b, c, d, h_a, delt])
            mask = mask[: idx.size]
    h[idx] = h_a
    return h


def _reg_upper_cf(s: float, t: np.ndarray, tol: float, itmax: int) -> np.ndarray:
    """Q(s,t) by the continued fraction, valid for t >= s+1.  The prefactor
    e^(-t) t^s / Gamma(s) comes first: where it underflows to 0, Q is 0
    whatever the fraction (a finite positive number), so the fraction is
    evaluated on the other points only."""
    q = _log_prefactor(s, t)
    live = np.flatnonzero(q)
    q[live] *= _lentz_fraction(s, t[live], tol, itmax)
    return q


# Points per pass of the incomplete-Gamma routes, whose iteration arrays
# hold about eight values per point: a quarter of a ROW_BLOCK x COL_BLOCK
# Nystrom tile, so phi_split on a tile peaks at 5.5 tiles, not 15.8
GAMMA_CHUNK = 16384


def _reg_gamma_pair(s, t, tol: float = 1e-14, itmax: int = 500):
    """(P, Q) with P + Q = 1 exactly up to one rounding, over the points in
    passes of ``GAMMA_CHUNK`` (each point's arithmetic is its own, so the
    bits do not depend on the passes).  Each route fills its points of one
    of the two, and the other is 1 minus it there, formed in place through
    a mask with no masked copy."""
    s, t_arr = _check_gamma_args(s, t)
    t_flat = np.atleast_1d(t_arr).ravel()
    p = np.empty_like(t_flat)
    q = np.empty_like(t_flat)
    for k0 in range(0, t_flat.size, GAMMA_CHUNK):
        part = slice(k0, k0 + GAMMA_CHUNK)
        t_c, p_c, q_c = t_flat[part], p[part], q[part]
        ser = t_c < s + 1.0
        cf = ~ser
        if ser.any():
            p_c[ser] = _reg_lower_series(s, t_c[ser], tol, itmax)
            np.subtract(1.0, p_c, out=q_c, where=ser)
        if cf.any():
            q_c[cf] = _reg_upper_cf(s, t_c[cf], tol, itmax)
            np.subtract(1.0, q_c, out=p_c, where=cf)
    p = p.reshape(np.shape(t_arr))
    q = q.reshape(np.shape(t_arr))
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(p), float(q)
    return p, q


def _check_positive_t(t):
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0):
        raise DomainError("model kernels require t > 0")
    return t_arr


def phi_split(alpha, t):
    """The split t^(-1-2a) = phi0(t) + phi_inf(t) as the pair (phi0, phi_inf),
    from one evaluation of the incomplete Gamma pair (Q, P)(1+2a, t).

    phi0(t) = t^(-1-2a) Q(1+2a, t) = (1/Gamma(1+2a)) int_1^inf x^(2a) e^(-xt) dx
    carries the large-t end and decays like e^(-t); phi_inf(t) = t^(-1-2a)
    P(1+2a, t) = (1/Gamma(1+2a)) int_0^1 x^(2a) e^(-xt) dx carries the small-t
    end and is bounded near 0 with limit 1/Gamma(2+2a)."""
    a = check_alpha(alpha)
    t_arr = _check_positive_t(t)
    p, q = _reg_gamma_pair(1.0 + 2.0 * a, t_arr)
    power = t_arr ** (-1.0 - 2.0 * a)
    if np.ndim(t) == 0:
        return float(power * q), float(power * p)
    q *= power
    p *= power
    return q, p


def psi_plus(alpha, t):
    """Hankel kernel of the log-pushforward of the upper diagonal block:
    psi_+(t) = e^(t(alpha+1/2)) e^(-e^t), t >= 0."""
    a = check_alpha(alpha)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("psi_plus requires t >= 0")
    out = np.exp(t_arr * (a + 0.5) - np.exp(t_arr))
    return float(out) if np.ndim(t) == 0 else out


def psi_minus(alpha, t):
    """Mirror kernel for the lower block: psi_-(t) = e^(-t(alpha+1/2)) e^(-e^(-t))."""
    a = check_alpha(alpha)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("psi_minus requires t >= 0")
    out = np.exp(-t_arr * (a + 0.5) - np.exp(-t_arr))
    return float(out) if np.ndim(t) == 0 else out
