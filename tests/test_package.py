"""Package-level tests: the public names each module lists."""

import importlib
import inspect
import pkgutil

import hankellab


def test_every_listed_name_is_defined():
    # the benchmark's tracer wraps every function a module lists in
    # __all__, so a name left there after its definition goes breaks it
    for info in pkgutil.iter_modules(hankellab.__path__):
        module = importlib.import_module(f"hankellab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in vars(module), f"{module.__name__}.__all__ lists undefined {name!r}"
            obj = vars(module)[name]
            # a constant (CHECK_NAMES) is named in capitals
            assert inspect.isfunction(obj) or inspect.isclass(obj) or name.isupper(), name
