"""The benchmark's tracer binds program names by string; each must exist.

perfbench/tracing.py wraps the methods listed in its METHODS table, so
renaming or deleting one of them breaks only a traced benchmark run. This
test resolves every entry against the program instead.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves_to_a_callable(tracing):
    assert tracing.METHODS
    for module, cls_name, attr, _ in tracing.METHODS:
        mod = importlib.import_module(f"pita.{module}")
        owner = mod if cls_name is None else getattr(mod, cls_name)
        assert callable(getattr(owner, attr, None)), (module, cls_name, attr)
    for module in tracing.LAYERS:
        importlib.import_module(f"pita.{module}")
