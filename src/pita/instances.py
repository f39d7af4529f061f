"""The three shipped instances: all finite maps, surjections only, and
order-preserving maps only.

Each instance is the maps it admits: hom(X, Y) is the maps X -> Y that
pass its `_admits` predicate, in value-table order. Objects are ordinals
identified with their cardinality and morphisms are the FinMaps
themselves. Every instance chooses the ordinal 1 with the shared fold as
its local terminal. The surjections instance starts at the ordinal 1: the
empty ordinal has no surjection onto 1, so it would sit in its own
component with a 0-element terminal and break the axioms.
"""

from __future__ import annotations

from . import finskel
from .errors import ShapeError
from .finskel import FinMap
from .opcat import OperadicInstance, Report


class _FinMapInstance(OperadicInstance):
    """The ordinals from `_min_object` up with the maps `_admits` accepts;
    each hom is filtered from all maps once and cached."""

    _min_object = 0

    def __init__(self):
        self._hom_cache: dict = {}

    @staticmethod
    def _admits(f: FinMap) -> bool:
        return True

    def objects(self, bound: int):
        return list(range(self._min_object, bound + 1))

    def hom(self, X: int, Y: int):
        key = (X, Y)
        if key not in self._hom_cache:
            maps = finskel.enumerate_maps(X, Y)
            self._hom_cache[key] = tuple(filter(self._admits, maps))
        return self._hom_cache[key]

    def chosen_terminal(self, X: int):
        return 1, finskel.fold(X)

    def is_morphism(self, f: FinMap) -> bool:
        """Whether f lies in hom(f.dom, f.cod), without enumerating it."""
        lo = self._min_object
        return f.dom >= lo and f.cod >= lo and self._admits(f)


class FinInstance(_FinMapInstance):
    """All maps between finite ordinals."""

    name = "fin"


class FinSurjInstance(_FinMapInstance):
    """Surjections between nonempty finite ordinals. Homs have no empty
    fibres by construction, and fibre maps of surjections are again
    surjections, so the instance is closed."""

    name = "fin-surj"
    _min_object = 1
    _admits = staticmethod(finskel.is_surjective)


class OrderPreservingInstance(_FinMapInstance):
    """Order-preserving maps only: the degenerate case in which the only
    quasibijections are identities and every morphism is op."""

    name = "op"
    _admits = staticmethod(finskel.is_order_preserving)


def make_fin() -> FinInstance:
    return FinInstance()


def make_fin_surj() -> FinSurjInstance:
    return FinSurjInstance()


def make_op() -> OrderPreservingInstance:
    return OrderPreservingInstance()


_REGISTRY = {
    "fin": make_fin,
    "fin-surj": make_fin_surj,
    "op": make_op,
}


def make_instance(name: str) -> OperadicInstance:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ShapeError(f"unknown instance {name!r}") from None


# ------------------------------------------------------------ weak blow-up


def _op_map_with_fibres(sizes, cod: int) -> FinMap:
    values = []
    for i, s in enumerate(sizes, 1):
        values.extend([i] * s)
    return FinMap(sum(sizes), cod, values)


def _families(inst, fibres, bound):
    """All choices (F_i, f_i) with f_i a morphism fibre_i -> F_i and the
    total size of the F_i at most the bound."""
    objs = inst.objects(bound)

    def build(i, budget, acc):
        if i == len(fibres):
            yield tuple(acc)
            return
        for F in objs:
            if F > budget:
                continue
            for f in inst.hom(fibres[i], F):
                acc.append((F, f))
                yield from build(i + 1, budget - F, acc)
                acc.pop()

    yield from build(0, bound, [])


def weak_blowup_report(inst, bound: int, max_violations: int = 50) -> Report:
    """For every op map h and every family of morphisms out of its fibres,
    check that exactly one factorisation h = compose(f, g) exists with g op,
    the fibres of g the chosen targets, and the fibre maps of f over g the
    chosen family. The witness factorisation is built explicitly and the
    uniqueness half is a bounded search."""
    rep = Report(
        f"weak-blowup[{inst.name}, bound={bound}]",
        max_violations=max_violations,
    )
    objs = inst.objects(bound)
    for T in objs:
        for R in objs:
            for h in inst.hom(T, R):
                if not finskel.is_order_preserving(h):
                    continue
                fibres = [inst.fibre(h, i) for i in range(1, R + 1)]
                for family in _families(inst, fibres, bound):
                    targets = [F for F, _ in family]
                    maps = [f for _, f in family]
                    S = sum(targets)
                    if S not in objs:
                        continue
                    g = _op_map_with_fibres(targets, R)
                    values = [0] * T
                    for i in range(1, R + 1):
                        eps_h = finskel.fibre(h, i)
                        eps_g = finskel.fibre(g, i)
                        fi = maps[i - 1]
                        for j in range(1, eps_h.dom + 1):
                            values[eps_h(j) - 1] = eps_g(fi(j))
                    f = FinMap(T, S, values)
                    rep.count("blowup-existence")
                    ok = (
                        f in inst.hom(T, S)
                        and g in inst.hom(S, R)
                        and inst.compose(f, g) == h
                        and all(
                            inst.fibre(g, i) == targets[i - 1]
                            for i in range(1, R + 1)
                        )
                        and all(
                            inst.fibre_morphism(f, g, i) == maps[i - 1]
                            for i in range(1, R + 1)
                        )
                    )
                    if not ok:
                        rep.add(
                            "blowup-existence",
                            {
                                "h": finskel.finmap_to_json(h),
                                "targets": targets,
                            },
                            "constructed factorisation invalid",
                            "a valid factorisation",
                        )
                        continue
                    # uniqueness: g is pinned by its fibres, f by the
                    # fibre maps; scan for impostors
                    g_candidates = [
                        g2
                        for g2 in inst.hom(S, R)
                        if finskel.is_order_preserving(g2)
                        and all(
                            inst.fibre(g2, i) == targets[i - 1]
                            for i in range(1, R + 1)
                        )
                    ]
                    f_candidates = [
                        f2
                        for f2 in inst.hom(T, S)
                        if inst.compose(f2, g) == h
                        and all(
                            inst.fibre_morphism(f2, g, i) == maps[i - 1]
                            for i in range(1, R + 1)
                        )
                    ]
                    rep.count("blowup-uniqueness")
                    if len(g_candidates) != 1 or len(f_candidates) != 1:
                        rep.add(
                            "blowup-uniqueness",
                            {
                                "h": finskel.finmap_to_json(h),
                                "targets": targets,
                            },
                            {
                                "g_matches": len(g_candidates),
                                "f_matches": len(f_candidates),
                            },
                            {"g_matches": 1, "f_matches": 1},
                        )
    return rep
