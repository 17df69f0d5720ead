"""End-to-end benchmark of hankellab's ``verify`` and ``spectrum`` commands.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload verify-default --seed 1 --seconds 10 --trace 0

Each operation is one ``hankellab.cli.main([...])`` call made in this process,
one at a time (a closed loop).  After one warm-up operation the run repeats
whole rounds of the workload's operations, in an order drawn from ``--seed``,
until ``--seconds`` have passed.  Every output is checked against computations
made apart from the program (see ``checks.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a traced round with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# The BLAS thread count is part of each workload's definition (the C6 verdict
# at alpha = 0.5 depends on it), so it is fixed before numpy is imported: two
# threads, the core count of the machine the reference figures come from.
BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import copy
import ctypes
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402

Ladder = Tuple[Tuple[float, int], ...]
DEFAULT_LADDER: Ladder = ((6.0, 200), (8.0, 400), (10.0, 800))
LARGE_LADDER: Ladder = ((12.0, 1600), (14.0, 2400))
SPECTRUM_LADDER: Ladder = ((6.0, 200), (8.0, 400), (10.0, 800), (12.0, 1600), (16.0, 3200))
# Set-up is sampled at the start, after the warm-up and at the end of a run,
# so that one slow spell of a shared machine does not set the median.
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import hankellab.cli as cli; "
    "cli._build_parser(); print(time.perf_counter() - t0)"
)


@dataclass(frozen=True)
class Op:
    command: str  # "verify" or "spectrum"
    alpha: float
    kernel: str
    ladder: Ladder
    # the C6 Gram-route fault (see README.md) makes this operation fail
    c6_fault: bool = False

    def argv(self, out: Path) -> List[str]:
        args = [self.command, "--alpha", f"{self.alpha:g}", "--kernel", self.kernel, "--out", str(out)]
        if self.ladder != DEFAULT_LADDER:
            args += ["--config", str(out / "ladder.json")]
        return args


VERIFY_KERNELS = ("power", "rational(1,-1,1,1)", "rational(2,1,1,2)")
WORKLOADS: Dict[str, Tuple[Tuple[Op, ...], Op]] = {
    # (operations of one round, warm-up operation)
    "verify-default": (
        tuple(
            Op("verify", a, k, DEFAULT_LADDER, c6_fault=(a == 0.5))
            for a in (0.0, 0.5)
            for k in VERIFY_KERNELS
        ),
        Op("verify", 0.0, "power", DEFAULT_LADDER),
    ),
    # the warm-up runs the same command on the default ladder: a second 30 s
    # operation would double the run and warm nothing the small one does not
    "verify-large": (
        (Op("verify", 0.5, "rational(2,1,1,2)", LARGE_LADDER),),
        Op("verify", 0.5, "rational(2,1,1,2)", DEFAULT_LADDER),
    ),
    "spectrum-families": (
        tuple(
            Op("spectrum", a, k, SPECTRUM_LADDER)
            for a, k in (
                (0.0, "carleman"),
                (0.5, "power"),
                (0.0, "rational(1,-1,1,1)"),
                (0.5, "rational(2,1,1,2)"),
            )
        ),
        Op("spectrum", 0.0, "carleman", SPECTRUM_LADDER),
    ),
}


def environment() -> dict:
    """numpy, BLAS and CPU facts that the figures depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads: Optional[int] = None
    config: Optional[str] = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                threads = get()
                cfg = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if cfg is not None:
                    cfg.restype = ctypes.c_char_p
                    config = cfg().decode()
                break
        if threads is not None:
            break
    cpu = platform.processor() or "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
    }


def measure_setup() -> float:
    """Seconds to import hankellab and build its CLI parser in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=str(ROOT),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def run_op(cli, op: Op, out: Path) -> Tuple[float, int]:
    """Wall seconds and exit code of one operation; output goes to ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if op.ladder != DEFAULT_LADDER:
        (out / "ladder.json").write_text(json.dumps({"ladder": [list(s) for s in op.ladder]}))
    argv = op.argv(out)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


def judge(op: Op, out: Path, code: int) -> Tuple[bool, List[str]]:
    """(failed, problems): an operation fails when its exit code is not 0 or
    its output fails a check; problems are failures other than the known C6
    fault, so they make the run incorrect."""
    try:
        if op.command == "verify":
            try:
                report = json.loads((out / "verification_report.json").read_text())
            except (OSError, ValueError):
                report = None
            problems = checks.check_verify(report, code, op.alpha, op.ladder, op.c6_fault)
        else:
            problems = checks.check_spectrum(out, code, op.alpha, op.kernel, op.ladder)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed output
        problems = [f"malformed output: {exc!r}"]
    return code != 0 or bool(problems), problems


def self_test(op: Op, out: Path, code: int, rng: random.Random) -> List[str]:
    """Perturb a copy of a checked output in ways a wrong program could and
    confirm that each perturbation makes the operation count as failed."""
    bad = WORK / "perturbed"
    cases = []
    if op.command == "verify":
        report = json.loads((out / "verification_report.json").read_text())
        flip = rng.randrange(len(report["checks"]))
        flipped = copy.deepcopy(report)
        check = flipped["checks"][flip]
        check["verdict"] = "fail" if check["verdict"] == "pass" else "pass"
        scaled = copy.deepcopy(report)
        checks_by_name = {c["name"]: c for c in scaled["checks"]}
        for row in checks_by_name["C1"]["metrics"]:
            row["model_norm"] *= 1.1
        for row in checks_by_name["C8"]["metrics"]:
            row["model"]["top"] *= 1.1
        for label, payload in ((f"{check['name']} verdict flipped", flipped),
                               ("model norms scaled by 1.1", scaled)):
            cases.append((label, {"verification_report.json": json.dumps(payload)}))
    else:
        names = [checks.eigs_name(R, N) for R, N in op.ladder]
        texts = {n: (out / n).read_text() for n in names}
        scaled = {n: "".join(f"{1.1 * float(v)!r}\n" for v in t.splitlines()) for n, t in texts.items()}
        cases.append(("eigenvalues scaled by 1.1", scaled))
        victim = rng.choice(names)
        lines = texts[victim].splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        cases.append((f"one line of {victim} dropped", {victim: "".join(lines)}))
    missed = []
    for label, files in cases:
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        for name, text in files.items():
            (bad / name).write_text(text)
        failed, problems = judge(op, bad, code)
        if not (failed and problems):
            missed.append(f"self-test: {label} was not detected")
    shutil.rmtree(bad, ignore_errors=True)
    return missed


def differing_files(a: Path, b: Path) -> List[str]:
    """Names of the files that are not byte-identical in two directories."""
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    return sorted(
        n for n in names
        if not ((a / n).is_file() and (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes())
    )


class Run:
    """Counts and timings of one benchmark run."""

    def __init__(self, cli, rng: random.Random):
        self.cli, self.rng = cli, rng
        self.attempted = self.failed = self.known_fault = 0
        self.problems: List[str] = []
        self.op_seconds: List[float] = []

    def round(self, ops: Sequence[Op], where: Path, keep: bool = False,
              tracer: Optional[tracing.Tracer] = None) -> float:
        """One round in ``ops`` order; returns the summed wall time of its operations."""
        total = 0.0
        for i, op in enumerate(ops):
            out = where / str(i)
            if tracer is not None:
                tracer.op = i
            seconds, code = run_op(self.cli, op, out)
            print(f"operation {op.command} {op.kernel}@{op.alpha:g} {seconds:.4f} s exit {code}", flush=True)
            total += seconds
            self.op_seconds.append(seconds)
            failed, problems = judge(op, out, code)
            self.attempted += 1
            self.failed += failed
            self.known_fault += failed and not problems
            self.problems += [f"{op.command} {op.kernel}@{op.alpha:g}: {p}" for p in problems]
            if not problems:
                self.problems += self_test(op, out, code, self.rng)
            if not keep:
                shutil.rmtree(out)
        return total


def timed_metrics(run: Run, ops: Sequence[Op], warm_up: Op, seconds: float) -> dict:
    """End-to-end metrics: whole rounds in seed order until ``seconds`` pass."""
    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    run_op(run.cli, warm_up, WORK / "warm-up")
    setup += [measure_setup() for _ in range(SETUP_SAMPLES)]
    rounds: List[float] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run.round(run.rng.sample(ops, len(ops)), WORK / "ops"))
    setup += [measure_setup() for _ in range(SETUP_SAMPLES)]
    print(f"rounds {len(rounds)}", flush=True)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(rounds), "unit": "s"},
        "op_p50_s": {"value": statistics.median(run.op_seconds), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def traced_metrics(run: Run, ops: Sequence[Op], warm_up: Op) -> dict:
    """Per-layer metrics: one untraced and one traced round in the same order,
    whose output files must be byte-identical."""
    run_op(run.cli, warm_up, WORK / "warm-up")
    order = run.rng.sample(ops, len(ops))
    plain = run.round(order, WORK / "plain", keep=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.round(order, WORK / "traced", keep=True, tracer=tracer)
    finally:
        tracer.uninstall()
    for i, op in enumerate(order):
        differ = differing_files(WORK / "plain" / str(i), WORK / "traced" / str(i))
        if differ:
            run.problems.append(f"traced run changed {differ} of {op.command} {op.kernel}@{op.alpha:g}")
    tracer.write(WORK / "spans.jsonl")
    layer = tracing.layer_metrics(tracer.spans)
    layer["trace.overhead_share"] = traced / plain - 1.0
    return {name: {"value": value, "unit": tracing.unit(name)} for name, value in layer.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hankellab" / "cli.py").is_file():
        print(f"error: no hankellab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hankellab.cli as cli

    env = environment()
    print("environment " + json.dumps(env), flush=True)
    if env["blas_threads"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {env['blas_threads']} threads, not {BLAS_THREADS}", file=sys.stderr)
        return 2

    ops, warm_up = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    run = Run(cli, random.Random(args.seed))
    if args.trace:
        metrics = traced_metrics(run, ops, warm_up)
    else:
        metrics = timed_metrics(run, ops, warm_up, args.seconds)
    print(f"operations {run.attempted}, failed {run.failed}, of which {run.known_fault} with the "
          "known C6 Gram-route fault of linalg.singular_values (see bench/README.md)", flush=True)
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
