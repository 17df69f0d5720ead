"""Kernel and weight families.

A family is four numbers (a0, a_inf, b0, b_inf): every weighted operator the
program assembles comes from ``rational_test_family(alpha, a0, a_inf, b0,
b_inf)``.  The model pair a(t) = t^(-1-2 alpha), w(t) = t^alpha (the
``power`` and ``carleman`` kernels of the command line) is its point
(1, 1, 1, 1).

The spectral predictions need the derivatives of t^(1+2 alpha) a(t) minus its
limits a0, a_inf to decay at both ends, and t^(-alpha) w(t) to be bounded with
finite integrals of |t^(-2 alpha) w^2 - b^2| dt/t.  The family meets them in
closed form, so nothing checks them at run time:

    t^(1+2 alpha) a(t) - a0 = (a_inf - a0) t / (1+t),
    t^(-alpha) w(t) = (b0 + b_inf t) / (1+t), a convex combination of b0, b_inf.

The closures also take mpmath numbers, so tests differentiate this code.

Weights are restricted to real-valued functions: the spectral predictions
depend only on |b0|^2, |b_inf|^2, and real weights keep every matrix real
symmetric.  This is a documented v1 limitation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

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
]


@dataclass(frozen=True)
class KernelSpec:
    """A kernel a(t) with its order alpha and the limits of t^(1+2a) a(t) at 0
    and infinity."""

    alpha: float
    eval: Callable
    a0: float
    a_inf: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))


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
    """Rational family with the declared limits,

        a(t) = (a0 + a_inf t) / (t^(1+2 alpha) (1+t)),
        w(t) = t^alpha (b0 + b_inf t) / (1+t),

    so that t^(1+2 alpha) a(t) - a0 = (a_inf - a0) t / (1+t) and
    t^(-alpha) w(t) = (b0 + b_inf t) / (1+t), a convex combination of b0 and
    b_inf: the hypotheses hold with margin 1 for any finite parameters.
    At (1, 1, 1, 1) this is the model kernel/weight pair in exact arithmetic.
    """
    a = check_alpha(alpha)
    a0, a_inf, b0, b_inf = float(a0), float(a_inf), float(b0), float(b_inf)

    def a_eval(t):
        return (a0 + a_inf * t) / (t ** (1.0 + 2.0 * a) * (1.0 + t))

    def w_eval(t):
        return t**a * (b0 + b_inf * t) / (1.0 + t)

    return (
        KernelSpec(alpha=a, eval=a_eval, a0=a0, a_inf=a_inf),
        WeightSpec(alpha=a, eval=w_eval, b0=b0, b_inf=b_inf),
    )
