"""Public names still resolve after a deletion: every ``__all__`` entry of
the package, and every entry point the benchmark's tracer wraps
(``perfbench/tracer.py``), which the unit suites would not otherwise see."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import nicperf

MODULES = ["nicperf"] + [
    f"nicperf.{m.name}" for m in pkgutil.iter_modules(nicperf.__path__)
]

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_tracer_entry_points_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.LAYER_POINTS
    for point in tracer.LAYER_POINTS:
        owner = importlib.import_module(point.module)
        *path, leaf = point.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            assert owner is not None, point
        # The tracer swaps the attribute in the owner's own namespace.
        assert leaf in vars(owner), point
