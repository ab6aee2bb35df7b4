"""The names other code reaches by string resolve.

The benchmark's tracer (`perfbench/spans.py`) patches the functions listed
in `LAYERS` by module and name, and `__all__` lists what a module exports;
a rename or deletion that leaves either list stale fails here, not at run
time of the benchmark.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import loglap

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def resolves(module: str, qualname: str) -> bool:
    owner = importlib.import_module(module)
    for attr in qualname.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return callable(owner)


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{qualname}" for module, qualname, _, _ in spans.LAYERS
               if not resolves(module, qualname)]
    assert not missing, f"spans.LAYERS names missing functions {missing}"


def test_exported_names_exist():
    missing = []
    for info in pkgutil.iter_modules(loglap.__path__):
        module = importlib.import_module(f"loglap.{info.name}")
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, f"__all__ lists missing names {missing}"
