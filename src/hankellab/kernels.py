"""Kernel and weight families, and numerical checkers for the asymptotic
regularity hypotheses under which the spectral predictions hold.

Weights are restricted to real-valued functions: the spectral predictions
depend only on |b0|^2, |b_inf|^2, and real weights keep every matrix real
symmetric.  This is a documented v1 limitation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import DomainError
from .specfun import check_alpha, ln_gamma

__all__ = [
    "KernelSpec",
    "WeightSpec",
    "kernel_A",
    "kernel_L",
    "weighted_hankel_kernel",
    "rational_test_family",
    "power_family",
    "HypothesisReport",
    "ConditionReport",
    "hypothesis_check",
]


@dataclass(frozen=True)
class KernelSpec:
    """A kernel a(t) with its order alpha, limits of t^(1+2a) a(t) at 0 and
    infinity, and the regularity margin epsilon of the hypothesis checks."""

    alpha: float
    eval: Callable
    a0: float
    a_inf: float
    epsilon: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if not self.epsilon > 0.0:
            raise DomainError("epsilon must be positive")


@dataclass(frozen=True)
class WeightSpec:
    """A real weight w(t) with the limits of t^(-alpha) w(t) at 0 and infinity."""

    alpha: float
    eval: Callable
    b0: float
    b_inf: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))


def kernel_A(alpha) -> Callable:
    """Two-variable kernel s^a t^a (s+t)^(-1-2a) of the model operator.

    alpha = 0 is the Carleman kernel 1/(s+t).
    """
    a = check_alpha(alpha)

    def K(s, t):
        return s**a * t**a * (s + t) ** (-1.0 - 2.0 * a)

    return K


def kernel_L(alpha) -> Callable:
    """Two-variable kernel t^a s^a e^(-st) / sqrt(Gamma(1+2a)) whose square
    reproduces the model operator."""
    a = check_alpha(alpha)
    c = math.exp(-0.5 * ln_gamma(1.0 + 2.0 * a))

    def K(s, t):
        return c * s**a * t**a * np.exp(-s * t)

    return K


def weighted_hankel_kernel(a: KernelSpec, w: WeightSpec) -> Callable:
    """Kernel w(t) a(t+s) w(s) of the weighted Hankel operator."""
    if a.alpha != w.alpha:
        raise DomainError(
            f"kernel and weight must share alpha (got {a.alpha} and {w.alpha})"
        )
    a_eval, w_eval = a.eval, w.eval

    def K(s, t):
        return w_eval(t) * a_eval(t + s) * w_eval(s)

    return K


def rational_test_family(alpha, a0, a_inf, b0, b_inf) -> Tuple[KernelSpec, WeightSpec]:
    """Concrete family satisfying every hypothesis with margin epsilon = 1:

        a(t) = (a0 + a_inf t) / (t^(1+2 alpha) (1+t)),
        w(t) = t^alpha (b0 + b_inf t) / (1+t).

    At (1, 1, 1, 1) this reduces exactly to the model kernel/weight pair.
    """
    a = check_alpha(alpha)
    a0, a_inf, b0, b_inf = float(a0), float(a_inf), float(b0), float(b_inf)

    def a_eval(t):
        return (a0 + a_inf * t) / (t ** (1.0 + 2.0 * a) * (1.0 + t))

    def w_eval(t):
        return t**a * (b0 + b_inf * t) / (1.0 + t)

    return (
        KernelSpec(alpha=a, eval=a_eval, a0=a0, a_inf=a_inf, epsilon=1.0),
        WeightSpec(alpha=a, eval=w_eval, b0=b0, b_inf=b_inf),
    )


def power_family(alpha) -> Tuple[KernelSpec, WeightSpec]:
    """Exact model pair a(t) = t^(-1-2 alpha), w(t) = t^alpha."""
    a = check_alpha(alpha)
    return (
        KernelSpec(alpha=a, eval=lambda t: t ** (-1.0 - 2.0 * a), a0=1.0, a_inf=1.0),
        WeightSpec(alpha=a, eval=lambda t: t**a, b0=1.0, b_inf=1.0),
    )


# --- hypothesis checker -----------------------------------------------------

_FD_STEP = 1e-3  # central-difference step in x = ln t


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    conditions: Tuple[ConditionReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    def as_dict(self):
        return {
            "ok": self.ok,
            "conditions": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.conditions
            ],
        }


def _log_derivatives(f: Callable, t: float, h: float = _FD_STEP, scale: float = None):
    """f, f', f'' at t from central differences in x = ln t.

    Returns the values together with a floating-point noise envelope for each
    derivative (the O(t^..) checks at t = 2^-30 amplify roundoff by t^-eps, so
    samples below the envelope must be treated as zero, not as signal).  When
    f is a small difference of larger quantities, ``scale`` must carry the
    magnitude of the cancelling terms, not of f itself.
    """
    x = math.log(t)
    fm, f0, fp = f(math.exp(x - h)), f(t), f(math.exp(x + h))
    if scale is None:
        scale = max(abs(fm), abs(f0), abs(fp))
    scale = max(scale, abs(fm), abs(f0), abs(fp), 1e-300)
    eps = np.finfo(float).eps
    gx = (fp - fm) / (2.0 * h)
    gxx = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = gx / t
    d2 = (gxx - gx) / (t * t)
    env1 = 4.0 * eps * scale / h / t
    env2 = 8.0 * eps * scale / (h * h) / (t * t)
    return (f0, d1, d2), (4.0 * eps * scale, env1, env2)


def _growth_bounded(values, envelopes, factor: float = 10.0) -> Tuple[bool, str]:
    """Boundedness surrogate on a geometric sample running toward the limit.

    A sequence certifies O(.) failure only by growing: significant values in
    the deep half must stay within ``factor`` times the shallow-half maximum.
    Values below their noise envelope are discounted.
    """
    vals = np.asarray(values, dtype=float)
    envs = np.asarray(envelopes, dtype=float)
    signif = np.where(vals > 8.0 * envs, vals, 0.0)
    mid = len(vals) // 2
    shallow = signif[:mid].max(initial=0.0)
    deep = signif[mid:].max(initial=0.0)
    floor = 1e-9 * max(shallow, envs.max(initial=0.0), 1e-300)
    ok = deep <= factor * shallow + floor
    return bool(ok), f"shallow_max={shallow:.3e} deep_max={deep:.3e}"


def _kernel_end_condition(spec: KernelSpec, end: str) -> List[ConditionReport]:
    a, eps_reg = spec.alpha, spec.epsilon
    limit = spec.a0 if end == "zero" else spec.a_inf

    def raw(t):
        return t ** (1.0 + 2.0 * a) * spec.eval(t)

    def g(t):
        return raw(t) - limit

    ks = np.arange(5, 31)
    ts = 2.0 ** (-ks) if end == "zero" else 2.0 ** (ks)
    reports = []
    for m in range(3):
        vals, envs = [], []
        for t in ts:
            try:
                # g is a difference of O(|limit|) quantities: the noise
                # envelope must see the cancelling magnitudes
                cancel = abs(raw(float(t))) + abs(limit)
                derivs, noise = _log_derivatives(g, float(t), scale=cancel)
            except Exception as exc:  # evaluation failure is reported, not fatal
                reports.append(
                    ConditionReport(
                        name=f"kernel_{end}_m{m}",
                        passed=False,
                        detail=f"evaluation failed at t={t}: {exc}",
                    )
                )
                break
            # hypothesis: d^m g = O(t^(-m+eps)) at 0, O(t^(-m-eps)) at infinity
            power = m - eps_reg if end == "zero" else m + eps_reg
            vals.append(abs(derivs[m]) * float(t) ** power)
            envs.append(noise[m] * float(t) ** power)
        else:
            ok, detail = _growth_bounded(vals, envs)
            reports.append(
                ConditionReport(
                    name=f"kernel_{end}_m{m}",
                    passed=ok,
                    detail=detail,
                )
            )
    return reports


def _weight_bounded_condition(w: WeightSpec) -> ConditionReport:
    ks = np.arange(5, 31)
    ts = np.concatenate([2.0 ** (-ks), 2.0 ** (ks)])
    vals = np.array([abs(float(t) ** (-w.alpha) * w.eval(float(t))) for t in ts])
    bound = 10.0 * (abs(w.b0) + abs(w.b_inf) + 1.0)
    ok = bool(np.all(vals <= bound))
    return ConditionReport(
        name="weight_bounded",
        passed=ok,
        detail=f"max t^-a w(t) = {vals.max():.3e} (bound {bound:.1f})",
    )


def _weight_integral_condition(w: WeightSpec, end: str) -> ConditionReport:
    """Cauchy test for int |w(t)^2 t^(-2a) - b^2| dt/t on nested truncations."""
    b = w.b0 if end == "zero" else w.b_inf

    def integrand(t):
        return abs(w.eval(t) ** 2 * t ** (-2.0 * w.alpha) - b * b) / t

    # nested shells (e^-5(k+1), e^-5k) near 0, mirrored near infinity
    shells = []
    for k in range(3):
        lo, hi = math.exp(-5.0 * (k + 1)), math.exp(-5.0 * k)
        if end == "infinity":
            lo, hi = 1.0 / hi, 1.0 / lo
        xs = np.linspace(math.log(lo), math.log(hi), 201)
        ts = np.exp(0.5 * (xs[1:] + xs[:-1]))
        h = xs[1] - xs[0]
        shells.append(float(np.sum([integrand(float(t)) * t * h for t in ts])))
    scale = abs(b * b) + 1.0
    ok = shells[1] <= 0.5 * shells[0] + 1e-9 * scale and shells[2] <= 0.5 * shells[1] + 1e-9 * scale
    return ConditionReport(
        name=f"weight_integral_{end}",
        passed=bool(ok),
        detail=f"shell integrals {['%.3e' % s for s in shells]}",
    )


def hypothesis_check(a: KernelSpec, w: WeightSpec) -> HypothesisReport:
    """Numerical check of the regularity hypotheses behind the spectral
    prediction: the m = 0, 1, 2 decay conditions on t^(1+2 alpha) a(t) at both
    ends, boundedness of t^(-alpha) w(t), and finiteness (via a Cauchy test on
    nested shells) of the two weight integrals."""
    if a.alpha != w.alpha:
        raise DomainError("kernel and weight must share alpha")
    conditions: List[ConditionReport] = []
    conditions.extend(_kernel_end_condition(a, "zero"))
    conditions.extend(_kernel_end_condition(a, "infinity"))
    conditions.append(_weight_bounded_condition(w))
    conditions.append(_weight_integral_condition(w, "zero"))
    conditions.append(_weight_integral_condition(w, "infinity"))
    return HypothesisReport(conditions=tuple(conditions))
