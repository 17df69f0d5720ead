"""Batch command-line front end.

Subcommands: ``symbol`` tabulates the Mellin multiplier against its
quadrature oracle, ``spectrum`` runs the eigenvalue/prediction pipeline over
a grid ladder, ``verify`` runs the identity suite.  Configuration comes from
an optional JSON file plus flag overrides (flags win).  Output files are
written atomically and byte-deterministically.

Exit codes: 0 ran / suite passed, 1 verification failure, 2 usage or
configuration error, or a kernel that is not finite on the grid.  Every check
of a command runs, and ``symbol`` and ``spectrum`` compute every result,
before the command makes the output directory, so a rejected run leaves no
directory behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .discretize import assemble_wHa_strips
from .errors import ConfigError, DomainError, GridError, KernelEvaluationError
from .kernels import rational_test_family
from .linalg import sym_eigen
from .quadrature import make_grid
from .spectra import PredictedSpectrum, analyze, predict
from .specfun import check_alpha, mellin_symbol, symbol_by_quadrature
from .verify import CHECK_NAMES, check_ladder, run_suite, select_checks

DEFAULT_LADDER: Tuple[Tuple[float, int], ...] = ((6.0, 200), (8.0, 400), (10.0, 800))


@dataclass
class RunConfig:
    alpha: float = 0.0
    kernel: str = "power"
    weight: Optional[str] = None
    ladder: Tuple[Tuple[float, int], ...] = DEFAULT_LADDER
    delta: Optional[float] = None
    interior_margin: Optional[float] = None
    output_dir: Path = Path(".")
    checks: Optional[Tuple[str, ...]] = None

    def coerce(self) -> "RunConfig":
        """Convert each field, as a JSON file gives it, to its type; raises
        TypeError or ValueError on a value that does not convert."""
        optional = lambda convert, value: None if value is None else convert(value)
        self.alpha, self.kernel = float(self.alpha), str(self.kernel)
        self.weight = optional(str, self.weight)
        # N stays a float here, so that check_step sees a fractional N
        self.ladder = tuple((float(R), float(N)) for R, N in self.ladder)
        self.delta = optional(float, self.delta)
        self.interior_margin = optional(float, self.interior_margin)
        self.output_dir = Path(self.output_dir)
        self.checks = optional(lambda names: tuple(str(c) for c in names), self.checks)
        return self

    def validate(self) -> "RunConfig":
        """Check each field with the rule that owns it (each error exits 2)."""
        check_alpha(self.alpha)
        self.ladder = tuple(check_ladder(self.ladder))
        for name, value in (("delta", self.delta), ("interior_margin", self.interior_margin)):
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        self.checks = select_checks(self.checks)
        return self


def _parse_call(text: str, name: str, n_args: int) -> List[float]:
    inner = text[len(name) + 1 : -1]
    parts = [p.strip() for p in inner.split(",")]
    if len(parts) != n_args:
        raise ConfigError(f"{name}(...) expects {n_args} parameters, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"could not parse parameters in {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"parameters in {text!r} must be finite")
    return values


def resolve_family(config: RunConfig) -> Tuple[Tuple[float, ...], PredictedSpectrum]:
    """The family (a0, a_inf, b0, b_inf) of a built-in kernel and weight name,
    and the predicted spectrum; no user code is executed.  ``power`` and
    ``carleman`` are (1, 1, 1, 1).  A family with finite parameters and
    endpoints meets the asymptotic hypotheses (see ``kernels``)."""
    alpha = config.alpha
    text = config.kernel.strip()
    if text == "carleman" and alpha != 0.0:
        raise ConfigError("the carleman kernel requires alpha = 0")
    if text in ("power", "carleman"):
        family = [1.0, 1.0, 1.0, 1.0]
    elif text.startswith("rational(") and text.endswith(")"):
        family = _parse_call(text, "rational", 4)
    else:
        raise ConfigError(
            f"unknown kernel {text!r}; built-ins: power, carleman, rational(a0,ainf,b0,binf)"
        )
    if config.weight is not None:
        wtext = config.weight.strip()
        if wtext == "power":
            family[2:] = 1.0, 1.0
        elif wtext.startswith("rational(") and wtext.endswith(")"):
            family[2:] = _parse_call(wtext, "rational", 2)
        else:
            raise ConfigError(
                f"unknown weight {wtext!r}; built-ins: power, rational(b0,binf)"
            )
    return tuple(family), predict(alpha, *family)


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _open_output(config: RunConfig) -> Path:
    """Make the output directory, once the command's checks have passed."""
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    try:
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc
    return out


def cmd_symbol(config: RunConfig) -> int:
    xi_grid = np.arange(-50, 51) / 10.0
    lines = ["xi,sigma_gamma,sigma_quadrature,abs_diff"]
    for xi in xi_grid:
        s_gamma = mellin_symbol(config.alpha, float(xi))
        s_quad = symbol_by_quadrature(config.alpha, float(xi))
        lines.append(
            ",".join([_fmt(xi), _fmt(s_gamma), _fmt(s_quad), _fmt(abs(s_gamma - s_quad))])
        )
    _write_atomic(_open_output(config) / "symbol.csv", "\n".join(lines) + "\n")
    return 0


def cmd_spectrum(config: RunConfig) -> int:
    """Eigenvalues and spectral report of each ladder step.  Each step's
    weighted Hankel matrix is assembled as its upper row strips alone and
    solved on them, so no N x N array exists unless the low-rank route gives
    up: a step's traced peak is about 0.72 N^2 doubles at (16, 3200) and
    0.95 N^2 at (12, 1600), the strips 0.52-0.54 N^2 of it."""
    family, predicted = resolve_family(config)
    try:
        delta, margin = predicted.tolerances(config.delta, config.interior_margin)
    except DomainError as exc:
        raise ConfigError(
            f"{exc}: the defaults are fractions of it; give --delta and --margin"
        ) from exc
    predicted.interiors(margin)  # a margin that empties every interval fails here
    spec_a, spec_w = rational_test_family(config.alpha, *family)
    eig_files, steps = {}, []
    for R, N in config.ladder:
        eigs = sym_eigen(assemble_wHa_strips(spec_a, spec_w, make_grid(R, N)))
        eig_files[f"eigs_R{R:g}_N{N}.csv"] = "\n".join(_fmt(e) for e in eigs) + "\n"
        report = analyze(eigs, predicted, delta, margin)
        steps.append(
            {
                "R": R,
                "N": N,
                "max_gap": report.fill_max_gap,
                "outliers": list(report.outliers),
                "hausdorff": report.hausdorff,
                # every family resolve_family builds meets the hypotheses in closed form
                "hypothesis_ok": True,
            }
        )
    payload = {
        "alpha": config.alpha,
        "family": {
            "kernel": config.kernel,
            "weight": config.weight,
            **dict(zip(("a0", "a_inf", "b0", "b_inf"), family)),
        },
        "predicted": predicted.as_dict(),
        "steps": steps,
    }
    out = _open_output(config)
    for name, text in eig_files.items():
        _write_atomic(out / name, text)
    _write_json(out / "spectral_report.json", payload)
    return 0


def cmd_verify(config: RunConfig) -> int:
    family, _ = resolve_family(config)
    out = _open_output(config)
    report = run_suite(config.alpha, config.ladder, checks=config.checks, family=family)
    _write_json(out / "verification_report.json", report.as_dict())
    return 0 if report.verdict == "pass" else 1


_FLAGS = {
    "config": dict(type=Path, help="JSON config file"),
    "alpha": dict(type=float),
    "R": dict(type=float, help="single-step ladder override"),
    "N": dict(type=int, help="single-step ladder override"),
    "kernel": dict(type=str),
    "weight": dict(type=str),
    "out": dict(type=Path, dest="output_dir", help="output directory"),
    "delta": dict(type=float),
    "margin": dict(type=float, dest="interior_margin"),
    "checks": dict(
        type=lambda text: tuple(c.strip() for c in text.split(",") if c.strip()),
        help=f"comma-separated, from {','.join(CHECK_NAMES)}",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankellab",
        description="Spectral laboratory for weighted integral Hankel operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family = ("R", "N", "kernel", "weight")
    for name, fn, flags in (
        ("symbol", cmd_symbol, ("config", "alpha", "out")),
        ("spectrum", cmd_spectrum, ("config", "alpha", *family, "out", "delta", "margin")),
        ("verify", cmd_verify, ("config", "alpha", *family, "out", "checks")),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"could not read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(raw) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            config = RunConfig(**raw).coerce()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed value in config {args.config}: {exc}") from exc
    # flags win over the file; a subcommand's flags are named after the
    # fields they set, and a flag it does not take reads as unset
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    R, N = getattr(args, "R", None), getattr(args, "N", None)
    if (R is None) != (N is None):
        raise ConfigError("--R and --N must be given together")
    if R is not None:
        config.ladder = ((R, N),)
    return config.validate()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(load_config(args))
    except (ConfigError, DomainError, GridError, KernelEvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
