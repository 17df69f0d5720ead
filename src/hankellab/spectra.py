"""Spectral predictions and desk-scale diagnostics: predicted interval
unions, eigenvalue fill metrics, outlier counts and Schatten-decay
verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .specfun import check_alpha, pi_alpha

__all__ = [
    "SpectralInterval",
    "PredictedSpectrum",
    "SpectralReport",
    "predict",
    "analyze",
    "SchattenDiagnostic",
    "schatten_diagnostic",
]

DEFAULT_DELTA_FACTOR = 0.05
DEFAULT_MARGIN_FACTOR = 0.1


@dataclass(frozen=True)
class SpectralInterval:
    lo: float
    hi: float
    multiplicity: int


@dataclass(frozen=True)
class PredictedSpectrum:
    """Union of closed intervals, each with 0 as one endpoint (an interval
    with negative endpoint c is stored as [c, 0])."""

    intervals: Tuple[SpectralInterval, ...]

    @property
    def max_endpoint(self) -> float:
        return max((max(abs(i.lo), abs(i.hi)) for i in self.intervals), default=0.0)

    def distance(self, x) -> np.ndarray:
        """Distance of each x to the union: min over intervals of max(lo - x, x - hi, 0)."""
        x = np.asarray(x, dtype=float)
        if not self.intervals:
            return np.abs(x)
        lo, hi = np.array([(i.lo, i.hi) for i in self.intervals]).T
        x = x[..., np.newaxis]
        return np.maximum(np.maximum(lo - x, x - hi), 0.0).min(axis=-1)

    def interiors(self, margin: float) -> List[Tuple[float, float]]:
        """The intervals shrunk by ``margin`` at both ends, those it empties
        dropped; a margin that empties every interval raises DomainError."""
        kept = [(i.lo + margin, i.hi - margin) for i in self.intervals]
        kept = [(lo, hi) for lo, hi in kept if hi > lo]
        if self.intervals and not kept:
            raise DomainError(f"interior margin {margin} leaves no predicted interval")
        return kept

    def tolerances(self, delta=None, margin=None) -> Tuple[float, float]:
        """``delta`` and ``margin``, by default 0.05 and 0.1 times the largest
        endpoint magnitude; DomainError unless both are positive."""
        scale = self.max_endpoint
        if delta is None:
            delta = DEFAULT_DELTA_FACTOR * scale
        if margin is None:
            margin = DEFAULT_MARGIN_FACTOR * scale
        if not (delta > 0.0 and margin > 0.0):
            raise DomainError(f"delta and margin must be positive (largest endpoint {scale})")
        return float(delta), float(margin)

    def as_dict(self):
        return [
            {"lo": i.lo, "hi": i.hi, "multiplicity": i.multiplicity}
            for i in self.intervals
        ]


def predict(alpha, a0, a_inf, b0, b_inf) -> PredictedSpectrum:
    """Predicted a.c. spectrum of the weighted Hankel operator:
    [0, pi_alpha a0 b0^2] union [0, pi_alpha a_inf b_inf^2].

    A non-finite endpoint raises DomainError.  Degenerate intervals (zero
    endpoint) are dropped; a negative endpoint orients the interval as
    [c, 0]; coinciding intervals merge with multiplicity two (the exactly
    diagonalisable case).
    """
    a = check_alpha(alpha)
    pa = pi_alpha(a)
    try:
        ends = [pa * float(a0) * float(b0) ** 2, pa * float(a_inf) * float(b_inf) ** 2]
    except OverflowError:  # float ** raises where float * gives inf
        ends = [math.inf]
    if not all(math.isfinite(c) for c in ends):
        raise DomainError(f"predicted endpoints of {(a0, a_inf, b0, b_inf)} are not finite")
    ends = [c for c in ends if c != 0.0]
    multiplicity = 1
    if len(ends) == 2 and math.isclose(ends[0], ends[1], rel_tol=1e-12, abs_tol=0.0):
        ends, multiplicity = ends[:1], 2
    intervals = [
        SpectralInterval(lo=min(0.0, c), hi=max(0.0, c), multiplicity=multiplicity) for c in ends
    ]
    return PredictedSpectrum(intervals=tuple(intervals))


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray  # ascending
    fill_max_gap: float
    outliers: Tuple[float, ...]
    hausdorff: float
    delta: float
    interior_margin: float


def _interval_fill_gap(eigs: np.ndarray, lo: float, hi: float) -> float:
    inside = eigs[(eigs >= lo) & (eigs <= hi)]
    if inside.size == 0:
        return hi - lo
    if inside.size == 1:
        return 0.0
    return float(np.diff(inside).max())


def _interval_hausdorff(eigs: np.ndarray, lo: float, hi: float) -> float:
    """sup over [lo, hi] of the distance to the (ascending) eigenvalue set.

    The distance is piecewise linear with its local maxima at the midpoints
    of consecutive eigenvalues, so the sup is the larger of the two end
    distances and of the half-gaps whose midpoint lies in (lo, hi).  The
    set is not empty (:func:`analyze` rejects an empty list).
    """
    ends = max(float(np.abs(eigs - lo).min()), float(np.abs(eigs - hi).min()))
    mids = 0.5 * (eigs[1:] + eigs[:-1])
    # the half-gap as the distance from the rounded midpoint to its neighbours
    half_gaps = np.minimum(mids - eigs[:-1], eigs[1:] - mids)[(mids > lo) & (mids < hi)]
    return max(ends, float(half_gaps.max(initial=0.0)))


def analyze(
    eigs: Sequence[float],
    predicted: PredictedSpectrum,
    delta: Optional[float] = None,
    interior_margin: Optional[float] = None,
) -> SpectralReport:
    """Compare an eigenvalue list against a predicted interval union.

    Outliers are eigenvalues farther than ``delta`` from the union;
    ``fill_max_gap`` is the largest gap between consecutive eigenvalues inside
    each interval shrunk by ``interior_margin`` at both ends (the full shrunk
    length when it holds no eigenvalue); ``hausdorff`` is the one-sided
    Hausdorff distance from the shrunk union to the eigenvalue set.  Defaults:
    delta = 0.05 and margin = 0.1 times the largest endpoint magnitude.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    if eigs.size == 0:
        raise DomainError("analyze requires a non-empty eigenvalue list")
    delta, interior_margin = predicted.tolerances(delta, interior_margin)

    outliers = tuple(float(e) for e in eigs[predicted.distance(eigs) > delta])

    max_gap = 0.0
    hausdorff = 0.0
    for slo, shi in predicted.interiors(interior_margin):
        max_gap = max(max_gap, _interval_fill_gap(eigs, slo, shi))
        hausdorff = max(hausdorff, _interval_hausdorff(eigs, slo, shi))

    return SpectralReport(
        eigenvalues=eigs,
        fill_max_gap=float(max_gap),
        outliers=outliers,
        hausdorff=float(hausdorff),
        delta=float(delta),
        interior_margin=float(interior_margin),
    )


@dataclass(frozen=True)
class SchattenDiagnostic:
    p_fit: float
    verdict: str


def _slope(logk: np.ndarray, logs: np.ndarray) -> float:
    return float(np.polyfit(logk, logs, 1)[0])


def schatten_diagnostic(sigma, floor: float) -> SchattenDiagnostic:
    """Classify singular-value decay above ``floor``.

    Verdicts: ``super_polynomial`` when the log-log slope steepens (or
    flattens into the noise floor) by more than 1 between the first and second
    half of the data, ``non_summable_suspect`` when the overall slope is
    >= -1, ``polynomial`` otherwise, ``insufficient_data`` with fewer than 5
    usable values.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(np.diff(sigma) > 0.0):
        raise DomainError("singular values must be non-increasing")
    used = sigma[sigma > max(floor, 0.0)]
    if used.size < 5:
        return SchattenDiagnostic(p_fit=float("nan"), verdict="insufficient_data")
    k = np.arange(1, used.size + 1, dtype=float)
    logk, logs = np.log(k), np.log(used)
    p_fit = _slope(logk, logs)
    mid = used.size // 2
    s1 = _slope(logk[:mid], logs[:mid]) if mid >= 2 else p_fit
    s2 = _slope(logk[mid:], logs[mid:])
    if abs(s1 - s2) > 1.0:
        verdict = "super_polynomial"
    elif p_fit >= -1.0:
        verdict = "non_summable_suspect"
    else:
        verdict = "polynomial"
    return SchattenDiagnostic(p_fit=p_fit, verdict=verdict)
