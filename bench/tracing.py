"""Span tracer that wraps hankellab's functions from outside the program.

Functions are wrapped where their callers look them up: every binding of a
traced function in every hankellab module (the defining module and each
module that imported it with ``from ... import``) is replaced by one shared
wrapper, and :meth:`Tracer.uninstall` puts the originals back.  The kernel
closures returned by ``kernel_A``, ``kernel_L`` and ``weighted_hankel_kernel``
are wrapped as they are handed to ``discretize``.

A span records name, start, end, parent span and operation index; a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("specfun", "quadrature", "kernels", "discretize", "linalg", "spectra", "verify", "cli")
KERNEL_FACTORIES = ("kernel_A", "kernel_L", "weighted_hankel_kernel")
ASSEMBLE = (
    "assemble_A",
    "assemble_L",
    "assemble_wHa",
    "assemble_L_rect",
    "assemble_uL",
    "assemble_model_hankel",
    "log_pushforward_hankel",
)
COMPOSE = ("composed_block", "operator_square")
# Called at the top of nearly every function to validate alpha; timing it
# would cost more than the work it does.
UNTRACED = ("check_alpha",)
SIZES = (800, 1600, 3200)
MB = float(2**20)


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "attrs")

    def __init__(self, name: str, parent: int, op: int, start: float):
        self.name, self.parent, self.op, self.start = name, parent, op, start
        self.end = start
        self.attrs: dict = {}


def _key_part(value):
    """Hashable identity of an assembly argument: grids by (R, N), kernel and
    weight specs by their parameters, functions by their code location."""
    if hasattr(value, "R") and hasattr(value, "N"):
        return ("grid", value.R, value.N)
    if hasattr(value, "a_inf"):
        return ("kernel", value.alpha, value.a0, value.a_inf)
    if hasattr(value, "b_inf"):
        return ("weight", value.alpha, value.b0, value.b_inf)
    code = getattr(value, "__code__", None)
    if code is not None:
        return ("code", code.co_filename, code.co_firstlineno)
    return value


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        """Wrapper recording one span per call; ``attrs(args, kwargs, result)``
        adds fields to the span and ``post(result)`` replaces the result."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _layer_wrapper(self, layer: str, attr: str, fn: Callable, modules) -> Callable:
        name = f"{layer}.{attr}"
        if layer == "discretize" and attr in ASSEMBLE + COMPOSE:
            sig = inspect.signature(fn)
            wide_factor = modules["discretize"].WIDE_FACTOR

            def assembly(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                parts = dict(bound.arguments)
                if "wide" in parts and parts["wide"] is None:
                    g = parts["grid"]
                    parts["wide"] = ("grid", wide_factor * g.R, wide_factor * g.N)
                key = (attr,) + tuple(_key_part(v) for v in parts.values())
                return {"key": key, "bytes": result.entries.nbytes}

            return self.wrap(name, fn, attrs=assembly)
        if layer == "quadrature" and attr in ("nystrom", "nystrom_rect"):
            return self.wrap(name, fn, attrs=lambda a, k, r: {"n": r.grid.N, "entries": r.entries.size})
        if layer == "linalg" and attr in ("sym_eigen", "singular_values"):
            def shape(args, kwargs, result):
                m = args[0]
                dims = getattr(m, "entries", m).shape
                return {"n": min(dims)}

            return self.wrap(name, fn, attrs=shape)
        if layer == "kernels" and attr in KERNEL_FACTORIES:
            points = lambda a, k, r: {"points": int(np.broadcast(*a).size)}
            return self.wrap(name, fn, post=lambda K: self.wrap("kernels.eval", K, attrs=points))
        return self.wrap(name, fn)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"hankellab.{name}") for name in LAYERS}
        wrappers: Dict[Callable, Callable] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and attr not in UNTRACED:
                    wrappers[fn] = self._layer_wrapper(layer, attr, fn, modules)
        verify, cli = modules["verify"], modules["cli"]
        for name in verify.CHECK_NAMES:
            fn = getattr(verify, f"_check_{name.lower()}")
            wrappers[fn] = self.wrap(f"verify.{name}", fn)
        wrappers[cli._write_atomic] = self.wrap(
            "cli.write", cli._write_atomic, attrs=lambda a, k, r: {"bytes": len(a[1].encode())}
        )
        wrappers[cli.main] = self.wrap("cli.main", cli.main)
        for mod in [importlib.import_module("hankellab")] + list(modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                record = {"name": span.name, "parent": span.parent, "op": span.op,
                          "start": span.start, "end": span.end}
                record.update({k: v for k, v in span.attrs.items() if k != "key"})
                handle.write(json.dumps(record) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    for suffix, u in ((".calls", "count"), (".distinct", "count"), (".spans", "count"),
                      (".bytes", "B"), ("_share", "ratio"), ("_mb", "MB"),
                      ("_m", "million"), ("_g", "1e9"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return u
    raise ValueError(f"no unit for {name}")


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced round; :func:`unit` gives their units."""
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += t
        self_s[span.name.split(".", 1)[0]] += t

    def group(names):
        return [(s, t) for s, t in zip(spans, own) if s.name in names]

    m: Dict[str, float] = {}
    for label, names in (("assemble", ASSEMBLE), ("compose", COMPOSE)):
        chosen = group({f"discretize.{n}" for n in names})
        keys = {(s.op, s.attrs["key"]) for s, _ in chosen}
        m[f"discretize.{label}.calls"] = len(chosen)
        m[f"discretize.{label}.distinct"] = len(keys)
        if label == "assemble":
            m["discretize.assemble.distinct_share"] = len(keys) / len(chosen) if chosen else 0.0
        m[f"discretize.{label}.self_s"] = sum(t for _, t in chosen)
    built = group({f"discretize.{n}" for n in ASSEMBLE + COMPOSE})
    m["discretize.bytes_built_mb"] = sum(s.attrs["bytes"] for s, _ in built) / MB
    m["discretize.self_s"] = self_s["discretize"]

    for fn in ("nystrom", "nystrom_rect"):
        m[f"quadrature.{fn}.calls"] = calls[f"quadrature.{fn}"]
        m[f"quadrature.{fn}.self_s"] = self_s[f"quadrature.{fn}"]
    quad = group({"quadrature.nystrom", "quadrature.nystrom_rect"})
    m["quadrature.entries_m"] = sum(s.attrs["entries"] for s, _ in quad) / 1e6
    for n in SIZES:
        m[f"quadrature.nystrom.n{n}.self_s"] = sum(
            t for s, t in quad if s.name == "quadrature.nystrom" and s.attrs["n"] == n
        )
    m["quadrature.self_s"] = self_s["quadrature"]

    evals = group({"kernels.eval"})
    m["kernels.eval.calls"] = len(evals)
    m["kernels.eval.points_m"] = sum(s.attrs["points"] for s, _ in evals) / 1e6
    m["kernels.eval.self_s"] = sum(t for _, t in evals)
    m["kernels.hypothesis_check.self_s"] = self_s["kernels.hypothesis_check"]
    m["kernels.self_s"] = self_s["kernels"]

    m["specfun.calls"] = sum(c for name, c in calls.items() if name.startswith("specfun."))
    m["specfun.self_s"] = self_s["specfun"]

    solves = group({"linalg.sym_eigen", "linalg.singular_values"})
    m["linalg.sym_eigen.calls"] = calls["linalg.sym_eigen"]
    m["linalg.sym_eigen.self_s"] = self_s["linalg.sym_eigen"]
    for n in SIZES:
        m[f"linalg.sym_eigen.n{n}.self_s"] = sum(
            t for s, t in solves if s.name == "linalg.sym_eigen" and s.attrs["n"] == n
        )
    for fn in ("singular_values", "op_norm"):
        m[f"linalg.{fn}.calls"] = calls[f"linalg.{fn}"]
        m[f"linalg.{fn}.self_s"] = self_s[f"linalg.{fn}"]
    m["linalg.nuclear_norm.self_s"] = self_s["linalg.nuclear_norm"]
    m["linalg.dense_order3_g"] = sum(float(s.attrs["n"]) ** 3 for s, _ in solves) / 1e9
    m["linalg.self_s"] = self_s["linalg"]

    m["spectra.analyze.calls"] = calls["spectra.analyze"]
    m["spectra.analyze.self_s"] = self_s["spectra.analyze"]
    m["spectra.schatten_diagnostic.self_s"] = self_s["spectra.schatten_diagnostic"]
    m["spectra.self_s"] = self_s["spectra"]

    for i in range(1, 9):
        m[f"verify.C{i}.s"] = sum(s.end - s.start for s in spans if s.name == f"verify.C{i}")
    m["verify.self_s"] = self_s["verify"]

    writes = group({"cli.write"})
    m["cli.write.calls"] = len(writes)
    m["cli.write.self_s"] = sum(t for _, t in writes)
    m["cli.write.bytes"] = sum(s.attrs["bytes"] for s, _ in writes)
    m["cli.self_s"] = self_s["cli"]
    m["trace.spans"] = len(spans)
    return m
