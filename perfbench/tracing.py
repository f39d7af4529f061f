"""Per-layer tracing installed from outside the program.

The tracer wraps the public functions and methods of each ``pita`` module
(plus the few constructors whose counts the per-layer metrics need) and
rebinds every module-level reference to them, so calls between modules go
through the wrappers too. Each wrapped call is a span with a name, start,
end and parent. Self time is the span's duration minus the time its child
spans cover. Totals are accumulated for every call; the spans themselves
are kept in memory (all spans of 1 ms or longer, plus the first
``SPAN_CAP`` shorter ones) and written out when the run ends.

Nothing here changes what the program computes: wrappers pass arguments
and results through untouched.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 20_000
LONG_SPAN_S = 1e-3

# Layer name of each module; the table module's leading underscore is
# dropped because metric names must start with a letter.
LAYERS = {
    "finskel": "finskel",
    "instances": "instances",
    "opcat": "opcat",
    "_tables": "tables",
    "factorisation": "factorisation",
    "nerve": "nerve",
    "decomp": "decomp",
    "cli": "cli",
}

# Methods and constructors wrapped in addition to module-level functions:
# (module, class, attribute, span name).
METHODS = [
    ("finskel", "FinMap", "__init__", "finskel.finmap_new"),
    ("opcat", "OperadicInstance", "compose", "opcat.compose"),
    ("opcat", "OperadicInstance", "fibre", "opcat.fibre"),
    ("opcat", "OperadicInstance", "fibre_morphism", "opcat.fibre_morphism"),
    ("instances", "_FinMapInstance", "hom", "instances.hom"),
    ("_tables", "MapTable", "__init__", "tables.build"),
    ("_tables", "MapTable", "ensure_pita", "tables.ensure_pita"),
    ("_tables", "MapTable", "sweep_iterated_fibre_maps", "tables.sweep"),
    ("_tables", "MapTable", "sweep_splitting_identities", "tables.sweep"),
    ("_tables", "MapTable", "sweep_relative_part_cocycle", "tables.sweep"),
    ("factorisation", "PitaFactorisation", "__post_init__",
     "factorisation.split_object"),
    ("nerve", "Chain", "__post_init__", "nerve.chain"),
    ("nerve", "FopDiagram", "__post_init__", "nerve.ladder"),
    ("decomp", "FactorisationGroupoid", "__post_init__", "decomp.groupoid"),
    ("cli", None, "_emit_report", "cli.emit_report"),
    ("cli", None, "_finish", "cli.finish"),
]


class Tracer:
    def __init__(self):
        # per span name: [calls, total seconds, self seconds]
        self.acc = {}
        self.counters = defaultdict(int)
        self.stack = []
        self.spans = []
        self.spans_dropped = 0
        self.first_report_at = None

    def _acc(self, name):
        return self.acc.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, fn, name):
        """A span per call: counts, total and self time, parent link."""
        acc = self._acc(name)
        stack, spans = self.stack, self.spans
        push, pop, keep = stack.append, stack.pop, spans.append

        def close(frame):
            end = perf_counter()
            pop()
            start = frame[1]
            dur = end - start
            acc[1] += dur
            acc[2] += dur - frame[2]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[2] += dur
            if dur >= LONG_SPAN_S or len(spans) < SPAN_CAP:
                keep((name, start, end, parent[0] if parent else None))
            else:
                self.spans_dropped += 1

        if inspect.isgeneratorfunction(fn):
            # a generator runs only while it is resumed, so each resume
            # is its own span; items are counted by the consuming span
            counters = self.counters
            items = f"{name}.items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    acc[0] += 1
                    frame = [name, perf_counter(), 0.0]
                    push(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame)
                    counters[items] += 1
                    if stack:
                        counters[f"{items}@{stack[-1][0]}"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc[0] += 1
            frame = [name, perf_counter(), 0.0]
            push(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return wrapper

    def count(self, fn, name):
        """Calls only, for constructors too hot to time one by one; their
        time stays in the self time of the calling span."""
        acc = self._acc(name)

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)

        return counter

    # ----------------------------------------------------------- install

    def install(self, modules):
        """Wrap every public function of the given modules and the
        methods in METHODS, then rebind all references in the modules."""
        replaced = {}
        for short, mod in modules.items():
            layer = LAYERS[short]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    replaced[obj] = self.wrap(obj, f"{layer}.{attr}")
        for short, cls_name, attr, name in METHODS:
            mod = modules[short]
            if cls_name is None:
                fn = getattr(mod, attr)
                replaced[fn] = self.wrap(fn, name)
            else:
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self._method(cls, attr, name))
        verify = modules["opcat"].verify_axioms
        replaced[verify] = self._count_checks(replaced[verify])
        emit = modules["cli"]._emit_report
        replaced[emit] = self._note_first_report(replaced[emit])
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _method(self, cls, attr, name):
        fn = getattr(cls, attr)
        if cls.__name__ == "MapTable":
            return self._table_method(fn, name)
        if attr == "hom":
            return self._hom_method(fn, name)
        if name == "finskel.finmap_new":
            return self.count(fn, name)
        return self.wrap(fn, name)

    def _hom_method(self, fn, name):
        """Count the morphisms a hom call enumerates (cache misses)."""
        wrapped = self.wrap(fn, name)
        counters = self.counters

        def hom(inst, X, Y):
            fresh = (X, Y) not in inst._hom_cache
            result = wrapped(inst, X, Y)
            if fresh:
                counters["instances.hom.enumerated"] += len(result)
            return result

        return hom

    def _table_method(self, fn, name):
        """Record table sizes and the bytes held in numpy arrays."""
        import numpy as np

        wrapped = self.wrap(fn, name)
        counters = self.counters

        def array_bytes(table):
            return sum(
                v.nbytes for v in vars(table).values()
                if isinstance(v, np.ndarray)
            )

        def method(table, *args, **kwargs):
            before = array_bytes(table)
            result = wrapped(table, *args, **kwargs)
            counters["tables.array_bytes"] += array_bytes(table) - before
            if name == "tables.build":
                counters["tables.maps"] += table.n
                counters["tables.pairs"] += table.pairs
            return result

        return method

    def _note_first_report(self, emit):
        """Time from the start of the workload to the first report."""

        def emit_report(rep, cfg, out):
            if self.first_report_at is None:
                self.first_report_at = perf_counter()
            return emit(rep, cfg, out)

        return emit_report

    def _count_checks(self, verify):
        """Checks made by the operadic-axiom verifier."""
        counters = self.counters

        @functools.wraps(verify)
        def verify_axioms(*args, **kwargs):
            rep = verify(*args, **kwargs)
            counters["opcat.checks"] += rep.checks
            return rep

        return verify_axioms

    # ----------------------------------------------------------- metrics

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(
            v[2] for k, v in self.acc.items() if k.startswith(prefix)
        )

    def metrics(self, started_at):
        """Per-layer metrics as {name: (value, unit)}."""
        c = {k: v[0] for k, v in self.acc.items()}
        t = {k: v[1] for k, v in self.acc.items()}
        s = {k: v[2] for k, v in self.acc.items()}
        n = self.counters
        enumerated = n[
            "finskel.enumerate_surjections.items@decomp.factorisations"
        ]
        kept = n["decomp.factorisations.items"]
        first = self.first_report_at
        return {
            "finskel.finmap_new": (c["finskel.finmap_new"], "count"),
            "finskel.compose.calls": (c["finskel.compose"], "count"),
            "finskel.fibre.calls": (c["finskel.fibre"], "count"),
            "finskel.fibre_map.calls": (c["finskel.fibre_map"], "count"),
            "finskel.pita.calls": (c["finskel.pita"], "count"),
            "finskel.self_s": (self.layer_self_s("finskel"), "s"),
            "instances.hom.calls": (c["instances.hom"], "count"),
            "instances.hom.enumerated": (
                n["instances.hom.enumerated"], "count"
            ),
            "instances.hom.self_s": (s["instances.hom"], "s"),
            "opcat.compose.calls": (c["opcat.compose"], "count"),
            "opcat.fibre.calls": (c["opcat.fibre"], "count"),
            "opcat.fibre_morphism.calls": (
                c["opcat.fibre_morphism"], "count"
            ),
            "opcat.verify_axioms.s": (t["opcat.verify_axioms"], "s"),
            "opcat.verify_axioms.self_s": (s["opcat.verify_axioms"], "s"),
            "opcat.checks": (n["opcat.checks"], "count"),
            "opcat.self_s": (self.layer_self_s("opcat"), "s"),
            "tables.build_s": (t["tables.build"], "s"),
            "tables.ensure_pita_s": (t["tables.ensure_pita"], "s"),
            "tables.sweep_s": (t["tables.sweep"], "s"),
            "tables.maps": (n["tables.maps"], "count"),
            "tables.pairs": (n["tables.pairs"], "count"),
            "tables.array_bytes": (n["tables.array_bytes"], "B"),
            "tables.self_s": (self.layer_self_s("tables"), "s"),
            "factorisation.pita_general.calls": (
                c["factorisation.pita_general"], "count"
            ),
            "factorisation.split_objects": (
                c["factorisation.split_object"], "count"
            ),
            "factorisation.eta_rel.calls": (
                c["factorisation.eta_rel"], "count"
            ),
            "factorisation.verify_eta_identities.s": (
                t["factorisation.verify_eta_identities"], "s"
            ),
            "factorisation.self_s": (
                self.layer_self_s("factorisation"), "s"
            ),
            "nerve.chains": (c["nerve.chain"], "count"),
            "nerve.ladders": (c["nerve.ladder"], "count"),
            "nerve.verify_strict_identities.s": (
                t["nerve.verify_strict_identities"], "s"
            ),
            "nerve.verify_beta_coherence.s": (
                t["nerve.verify_beta_coherence"], "s"
            ),
            "nerve.verify_opfibration.s": (
                t["nerve.verify_opfibration"], "s"
            ),
            "nerve.self_s": (self.layer_self_s("nerve"), "s"),
            "decomp.comult.s": (t["decomp.comult"], "s"),
            "decomp.surjections_enumerated": (enumerated, "count"),
            "decomp.factorisations_kept": (kept, "count"),
            "decomp.useful_ratio": (
                kept / enumerated if enumerated else 0.0, "ratio"
            ),
            "decomp.groupoids": (c["decomp.groupoid"], "count"),
            "decomp.verify_decomposition_fibres.s": (
                t["decomp.verify_decomposition_fibres"], "s"
            ),
            "decomp.self_s": (self.layer_self_s("decomp"), "s"),
            "cli.reports": (c["cli.emit_report"], "count"),
            "cli.first_report_s": (
                first - started_at if first is not None else 0.0, "s"
            ),
            "cli.render_s": (t["cli.emit_report"] + t["cli.finish"], "s"),
        }

    def dump(self):
        return {
            "spans": [
                {"name": a, "start": b, "end": c, "parent": d}
                for a, b, c, d in self.spans
            ],
            "spans_dropped": self.spans_dropped,
            "calls_total_self_s": self.acc,
            "counters": dict(self.counters),
        }
