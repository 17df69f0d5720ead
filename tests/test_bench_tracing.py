"""Smoke test of the benchmark's span tracer (bench/tracing.py, imported as
it stands) on the program: ``bench/run.py --trace 1`` wraps every function
of hankellab's layers, and the wrappers read the arguments and results of
the assembly and solver calls (the ``shape`` of whatever ``sym_eigen`` is
given, the packed form included)."""

import sys
from pathlib import Path

import pytest

import hankellab.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
STEP = ["--alpha", "0.5", "--kernel", "power", "--R", "8", "--N", "400"]
COMMANDS = {
    "spectrum": ["spectrum", *STEP],
    "verify": ["verify", *STEP, "--checks", "C6,C8"],
}


@pytest.fixture
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(str(BENCH))


def run(argv, out):
    """(exit code, {file name: bytes}) of one command, looked up on the
    module at call time, as the benchmark calls it."""
    code = cli.main(argv + ["--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_runs_close_every_span_and_write_the_same_bytes(tmp_path, tracing):
    plain = {name: run(argv, tmp_path / f"plain_{name}") for name, argv in COMMANDS.items()}
    main = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = {}
        for name, argv in COMMANDS.items():
            tracer.op += 1
            traced[name] = run(argv, tmp_path / f"traced_{name}")
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert traced == plain
    assert plain["spectrum"][0] == 0 and plain["spectrum"][1]
    # every span closed, inside the operation that opened it
    spans = tracer.spans
    assert not tracer._stack
    assert all(s.end >= s.start for s in spans)
    assert [s.op for s in spans if s.name == "cli.main"] == [0, 1]
    solves = [(s.op, s.attrs["n"]) for s in spans if s.name == "linalg.sym_eigen"]
    assert (0, 400) in solves and (1, 400) in solves
    assert {"verify.C6", "verify.C8"} <= {s.name for s in spans}
    metrics = tracing.layer_metrics(spans)
    assert metrics["linalg.sym_eigen.calls"] == len(solves)
    assert metrics["trace.spans"] == len(spans)
