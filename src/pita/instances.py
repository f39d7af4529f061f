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
from .opcat import OperadicInstance


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

