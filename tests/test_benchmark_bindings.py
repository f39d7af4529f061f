"""The benchmark binds program names by string; each must exist.

perfbench/tracing.py wraps the methods listed in its METHODS table, and
the workloads reach the program through attribute paths such as
pita.factorisation.pita_general, so renaming or deleting one of them
breaks only a benchmark run. These tests resolve every such name against
the program instead, build a table through the tracer's table wrapper,
which reads MapTable attributes, and run the factor stream's independent
check on this program's splits.
"""

import ast
import importlib
from pathlib import Path

import pytest

from pita import opcat
from pita._tables import MapTable
from pita.factorisation import eta_rel, pita_general
from pita.finskel import FinMap
from pita.instances import make_fin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_every_traced_name_resolves_to_a_callable(perfbench):
    tracing = perfbench("tracing")
    assert tracing.METHODS
    for module, cls_name, attr, _ in tracing.METHODS:
        mod = importlib.import_module(f"pita.{module}")
        owner = mod if cls_name is None else getattr(mod, cls_name)
        assert callable(getattr(owner, attr, None)), (module, cls_name, attr)
    for module in tracing.LAYERS:
        importlib.import_module(f"pita.{module}")


def test_the_table_tracer_reads_this_program(perfbench, monkeypatch):
    # the tracer's table wrapper reads attributes of a built MapTable
    tracer = perfbench("tracing").Tracer()
    build = tracer._table_method(MapTable.__init__, "tables.build")
    monkeypatch.setattr(MapTable, "__init__", build)
    u = opcat.Universe(make_fin(), 2)
    MapTable(u)
    assert tracer.counters["tables.maps"] == u.n
    assert tracer.counters["tables.pairs"] == len(u.pair_first)
    assert tracer.counters["tables.array_bytes"] > 0


def _program_names(source: str) -> set[tuple[str, str]]:
    """Every (module, name) reached as pita.<module>.<name>, directly, by
    a local alias of pita.<module>, or by from pita.<module> import."""
    tree = ast.parse(source)

    def module_of(node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "pita"
        ):
            return node.attr
        return None

    aliases = {
        node.targets[0].id: module_of(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and module_of(node.value)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = module_of(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            if module:
                names.add((module, node.attr))
        elif isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).startswith("pita."):
            names.update((node.module[5:], a.name) for a in node.names)
    return names


@pytest.mark.parametrize("script", ["workloads.py", "worker.py"])
def test_every_name_the_workloads_call_resolves(script):
    names = _program_names((PERFBENCH / script).read_text())
    assert names
    for module, name in sorted(names):
        mod = importlib.import_module(f"pita.{module}")
        assert hasattr(mod, name), (script, module, name)


def test_factor_stream_check_accepts_this_program(perfbench):
    workloads = perfbench("workloads")
    fin = make_fin()
    for f, n, g, k in workloads.stream_pairs(1, 0)[:50]:
        F, G = FinMap(len(f), n, f), FinMap(n, k, g)
        split = pita_general(fin, F)
        rel = eta_rel(fin, F, G)
        assert workloads.check_pair(
            f, n, g, k, split.pi.values, split.eta.values, rel.values
        ), (f, g)
