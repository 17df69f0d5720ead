"""Checks of hankellab's outputs against computations made apart from it.

Every reference value here comes from ``math.lgamma``, ``scipy.special`` or a
closed form, never from hankellab itself, so a wrong program result cannot be
confirmed by the same wrong code.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, loggamma

CHECK_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")

# Exact identities (C2 block isospectrality, C3 kernel split) hold to rounding.
BLOCK_EIG_TOL = 1e-10  # times pi_a
SPLIT_TOL = 1e-11  # relative to max|A|
# C4 battery grid (8, 600): the midpoint rule in x = ln t is exact to rounding
# for the smooth integrands and off by at most one step h for the indicator,
# whose two jumps each cost at most h/2.
C4_GRID = (8.0, 600)
# Outliers: eigenvalues farther than this share of the largest endpoint.
DELTA_FACTOR = 0.05
# Kac-Murdock-Szego counting law: the deviation is O(1) in R; 0.81 is the
# largest seen on these families for R in 6..16.
KMS_TOL = 1.5
KMS_FRACTIONS = (0.25, 0.5, 0.75)
# sum(eig) = trace and sum(eig^2) = |M|_F^2 hold to rounding of the solver.
MOMENT_TOL = 1e-9


def pi_alpha(alpha: float) -> float:
    """Gamma(1/2+a)^2 / Gamma(1+2a), the top of the model spectrum."""
    return math.exp(2.0 * math.lgamma(0.5 + alpha) - math.lgamma(1.0 + 2.0 * alpha))


def parse_family(kernel: str) -> Tuple[float, float, float, float]:
    """(a0, a_inf, b0, b_inf) of a built-in kernel name."""
    if kernel in ("power", "carleman"):
        return (1.0, 1.0, 1.0, 1.0)
    if kernel.startswith("rational(") and kernel.endswith(")"):
        vals = tuple(float(p) for p in kernel[len("rational(") : -1].split(","))
        if len(vals) == 4:
            return vals
    raise ValueError(f"unknown kernel {kernel!r}")


# --- verify -----------------------------------------------------------------


def _flag(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _c6_fault_only(check: dict) -> bool:
    """C6 failed, and only through the A_0i cross block (the Gram-route fault)."""
    slow = [
        label
        for row in check["metrics"]
        for label, entry in row.items()
        if entry["verdict"] != "super_polynomial"
    ]
    return check["verdict"] == "fail" and bool(slow) and set(slow) == {"A_0i"}


def check_verify(
    report: Optional[dict],
    exit_code: int,
    alpha: float,
    ladder: Sequence[Tuple[float, int]],
    allow_c6_fault: bool,
) -> List[str]:
    """Problems with a ``verification_report.json``.  With ``allow_c6_fault``
    a C6 failure that comes only from the A_0i block, with exit code 1, is the
    known fault and no problem."""
    if report is None:
        return [f"no report (exit code {exit_code})"]
    problems: List[str] = []
    checks = {c["name"]: c for c in report.get("checks", [])}
    if tuple(c["name"] for c in report.get("checks", [])) != CHECK_NAMES:
        return [f"report holds checks {sorted(checks)}, expected {list(CHECK_NAMES)}"]
    steps = [[float(R), int(N)] for R, N in ladder]
    pa = pi_alpha(alpha)

    c6_fault = allow_c6_fault and _c6_fault_only(checks["C6"])
    for name, check in checks.items():
        if check["verdict"] != "pass" and not (name == "C6" and c6_fault):
            problems.append(f"{name} verdict {check['verdict']}")
    all_pass = all(c["verdict"] == "pass" for c in checks.values())
    _flag(problems, report["verdict"] == ("pass" if all_pass else "fail"),
          f"report verdict {report['verdict']} disagrees with its checks")
    _flag(problems, exit_code == (1 if c6_fault else 0),
          f"exit code {exit_code} (C6 fault seen: {c6_fault})")
    for name in ("C1", "C2", "C3", "C5", "C6", "C7", "C8"):
        _flag(problems, checks[name]["grids"] == steps,
              f"{name} grids {checks[name]['grids']} != ladder {steps}")
        _flag(problems, len(checks[name]["metrics"]) == len(steps),
              f"{name} has {len(checks[name]['metrics'])} rows for {len(steps)} steps")
    if problems:
        return problems

    norms = [m["model_norm"] for m in checks["C1"]["metrics"]]
    _flag(problems, all(0.0 < n <= pa * (1 + 1e-12) for n in norms),
          f"C1 model_norm {norms} not in (0, pi_a = {pa!r}]")
    _flag(problems, all(b > a for a, b in zip(norms, norms[1:])),
          f"C1 model_norm {norms} not increasing along the ladder")
    diffs = [m["eig_diff"] for m in checks["C2"]["metrics"]]
    _flag(problems, all(0.0 <= d <= BLOCK_EIG_TOL * pa for d in diffs),
          f"C2 eig_diff {diffs} above {BLOCK_EIG_TOL} * pi_a")
    splits = [m["split_error"] for m in checks["C3"]["metrics"]]
    _flag(problems, all(0.0 <= s <= SPLIT_TOL for s in splits),
          f"C3 split_error {splits} above {SPLIT_TOL}")

    scale = 2.0 ** (-1.0 - 2.0 * alpha)
    h = 2.0 * C4_GRID[0] / C4_GRID[1]
    closed = (1.0, math.sqrt(math.pi / 2.0), 0.25)
    integrals = [m["integral"] for m in checks["C4"]["metrics"][:3]]
    for got, exact in zip(integrals, closed):
        _flag(problems, abs(got - scale * exact) <= scale * h,
              f"C4 integral {got!r} vs closed form {scale * exact!r} beyond {scale * h!r}")

    for row in checks["C8"]["metrics"]:
        model = row["model"]
        _flag(problems, model["outliers"] == 0, f"C8 model has {model['outliers']} outliers")
        _flag(problems, model["top"] <= pa * (1 + 1e-12),
              f"C8 model top {model['top']!r} above pi_a = {pa!r}")
    return problems


# --- spectrum ---------------------------------------------------------------


def predicted_endpoints(alpha: float, family: Sequence[float]) -> List[float]:
    """Nonzero endpoints pi_a a0 b0^2 and pi_a a_inf b_inf^2, pi_a from gammaln."""
    a0, a_inf, b0, b_inf = family
    pa = float(np.exp(2.0 * gammaln(0.5 + alpha) - gammaln(1.0 + 2.0 * alpha)))
    return [c for c in (pa * a0 * b0**2, pa * a_inf * b_inf**2) if c != 0.0]


def _symbol_ratio(alpha: float, xi: float) -> float:
    """sigma_a(xi) / pi_a with sigma_a(xi) = |Gamma(1/2+a+i xi)|^2 / Gamma(1+2a)."""
    log_top = 2.0 * gammaln(0.5 + alpha)
    return float(np.exp(2.0 * np.real(loggamma(0.5 + alpha + 1j * xi)) - log_top))


@functools.lru_cache(maxsize=None)
def superlevel_width(alpha: float, y: float) -> float:
    """|{xi : sigma_a(xi)/pi_a > y}|; sigma_a is even and decreasing in |xi|."""
    if y >= 1.0:
        return 0.0
    hi = 1.0
    while _symbol_ratio(alpha, hi) > y:
        hi *= 2.0
    return 2.0 * brentq(lambda x: _symbol_ratio(alpha, x) - y, 0.0, hi, xtol=1e-12)


def kms_count(alpha: float, ends: Sequence[float], R: float, lam: float) -> float:
    """Kac-Murdock-Szego prediction of #{eig > lam} (lam > 0) or #{eig < lam}
    (lam < 0): (R/2pi) * sum over same-signed ends c of |{xi : |c| sigma_a/pi_a > |lam|}|."""
    same = [abs(c) for c in ends if (c > 0) == (lam > 0)]
    return R / (2.0 * math.pi) * sum(superlevel_width(alpha, abs(lam) / c) for c in same)


@functools.lru_cache(maxsize=None)
def matrix_moments(alpha: float, family: Tuple[float, ...], R: float, N: int) -> Tuple[float, float]:
    """Trace and squared Frobenius norm of the Nystrom matrix
    sqrt(w_i w_j) w(t_i) a(t_i + t_j) w(t_j) on the midpoint log grid
    x_i = -R + (i - 1/2) h, t_i = e^(x_i), w_i = h t_i, with h = 2R/N and
    a(t) = (a0 + a_inf t) / (t^(1+2 alpha) (1+t)), w(t) = t^alpha (b0 + b_inf t) / (1+t)."""
    a0, a_inf, b0, b_inf = family
    h = 2.0 * R / N
    t = np.exp(-R + (np.arange(N) + 0.5) * h)
    v = np.sqrt(h * t) * t**alpha * (b0 + b_inf * t) / (1.0 + t)

    def kernel(s):
        return (a0 + a_inf * s) / (s ** (1.0 + 2.0 * alpha) * (1.0 + s))

    trace = float(np.sum(v * v * kernel(2.0 * t)))
    frobenius_sq = 0.0
    for lo in range(0, N, 400):  # row blocks keep the memory small
        block = v[lo : lo + 400, None] * kernel(t[lo : lo + 400, None] + t[None, :]) * v[None, :]
        frobenius_sq += float(np.sum(block * block))
    return trace, frobenius_sq


def eigs_name(R: float, N: int) -> str:
    return f"eigs_R{R:g}_N{N}.csv"


def read_eigs(path: Path) -> Optional[np.ndarray]:
    try:
        return np.array([float(line) for line in path.read_text().splitlines()])
    except (OSError, ValueError):
        return None


def check_spectrum(
    out_dir: Path,
    exit_code: int,
    alpha: float,
    kernel: str,
    ladder: Sequence[Tuple[float, int]],
) -> List[str]:
    """Problems with one ``spectrum`` run's CSVs and report."""
    problems: List[str] = []
    _flag(problems, exit_code == 0, f"exit code {exit_code}")
    family = parse_family(kernel)
    ends = predicted_endpoints(alpha, family)
    delta = DELTA_FACTOR * max(abs(c) for c in ends)
    lo, hi = min(0.0, *ends), max(0.0, *ends)
    try:
        report = json.loads((out_dir / "spectral_report.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"no spectral report: {exc}"]
    _flag(problems, [[s["R"], s["N"]] for s in report["steps"]] == [[float(R), int(N)] for R, N in ladder],
          "report steps do not match the ladder")
    reported = sorted(c for iv in report["predicted"] for c in (iv["lo"], iv["hi"]) if c != 0.0)
    expected = sorted(set(ends))
    _flag(problems, len(reported) == len(expected)
          and np.allclose(reported, expected, rtol=1e-12, atol=0.0),
          f"report endpoints {reported} != {expected}")
    for R, N in ladder:
        name = eigs_name(R, N)
        e = read_eigs(out_dir / name)
        if e is None:
            problems.append(f"{name} missing or unreadable")
            continue
        if e.size != N or not np.all(np.isfinite(e)) or np.any(np.diff(e) < 0.0):
            problems.append(f"{name} holds {e.size} values, expected {N} ascending finite values")
            continue
        trace, frobenius_sq = matrix_moments(alpha, family, R, N)
        _flag(problems, abs(e.sum() - trace) <= MOMENT_TOL * np.abs(e).sum(),
              f"{name}: sum of eigenvalues {e.sum()!r} != trace {trace!r}")
        _flag(problems, abs((e * e).sum() - frobenius_sq) <= MOMENT_TOL * frobenius_sq,
              f"{name}: sum of squared eigenvalues {(e * e).sum()!r} != |M|_F^2 {frobenius_sq!r}")
        far = np.maximum(np.maximum(lo - e, e - hi), 0.0).max()
        _flag(problems, far <= delta, f"{name}: eigenvalue {far!r} beyond the union, delta {delta!r}")
        for c in expected:
            for q in KMS_FRACTIONS:
                lam = q * c
                count = int((e > lam).sum()) if lam > 0 else int((e < lam).sum())
                pred = kms_count(alpha, ends, R, lam)
                _flag(problems, abs(count - pred) <= KMS_TOL,
                      f"{name}: N({lam:.4g}) = {count}, counting law {pred:.3f}")
    return problems
