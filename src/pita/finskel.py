"""Skeletal finite sets and the permutation/order-preserving factorisation.

Objects are the finite ordinals 0, 1, 2, ... where the ordinal n stands for
the set {1, ..., n}. A map is a FinMap with explicit domain and codomain
cardinalities and a 1-based value table. Composition is written in
application order: compose(g, f) applies g first and f second, so it is
defined when g.cod == f.dom.

The central operation is pita(f), which splits any map into a permutation pi
followed by an order-preserving map eta, f = eta after pi, and this splitting
is unique. A fibre is its strictly increasing inclusion, fibre(f, i), and
its cardinality is that map's domain; fibre_map(g, f, i) restricts g to the
fibres over i.

Derived maps (compose, fibre_map, pita, inverse), the surjections that
enumerate_surjections draws and the quotient legs of decomp's
factorisations are valid by construction and are built with
FinMap._trusted, which skips the range check; the public FinMap
constructor always validates. identity and fold (the map n -> 1) are
cached per object: FinMap is immutable, so every caller may share one,
which is validated once.
"""

from __future__ import annotations

import functools
import itertools

from .errors import CompositionError, ShapeError


class FinMap:
    """A map between finite ordinals, given by its 1-based value table."""

    __slots__ = ("dom", "cod", "values", "_hash")

    def __init__(self, dom: int, cod: int, values):
        values = tuple(values)
        if dom < 0 or cod < 0:
            raise ValueError("ordinals must be nonnegative")
        if len(values) != dom:
            raise ValueError(f"expected {dom} values, got {len(values)}")
        for v in values:
            if not 1 <= v <= cod:
                raise ValueError(f"value {v} outside 1..{cod}")
        # the slots are set through their descriptors, past __setattr__
        _SET_DOM(self, dom)
        _SET_COD(self, cod)
        _SET_VALUES(self, values)
        _SET_HASH(self, hash((dom, cod, values)))

    @classmethod
    def _trusted(cls, dom: int, cod: int, values: tuple) -> FinMap:
        """A map whose values are already a valid tuple for dom -> cod;
        only the primitives that build valid maps by construction call
        this."""
        f = object.__new__(cls)
        _SET_DOM(f, dom)
        _SET_COD(f, cod)
        _SET_VALUES(f, values)
        _SET_HASH(f, hash((dom, cod, values)))
        return f

    def __setattr__(self, name, value):
        raise AttributeError("FinMap is immutable")

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.dom:
            raise IndexError(f"position {j} outside 1..{self.dom}")
        return self.values[j - 1]

    def __eq__(self, other):
        if not isinstance(other, FinMap):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self.values == other.values
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinMap({self.dom}, {self.cod}, {list(self.values)})"

    def __str__(self):
        return f"{list(self.values)}:{self.dom}->{self.cod}"


_SET_DOM = FinMap.dom.__set__
_SET_COD = FinMap.cod.__set__
_SET_VALUES = FinMap.values.__set__
_SET_HASH = FinMap._hash.__set__


@functools.cache
def identity(n: int) -> FinMap:
    """The identity of n, one shared map per object."""
    return FinMap(n, n, range(1, n + 1))


@functools.cache
def fold(n: int) -> FinMap:
    """The map n -> 1, one shared map per object."""
    return FinMap(n, 1, (1,) * n)


def compose(g: FinMap, f: FinMap) -> FinMap:
    """Apply g first, then f. Requires g.cod == f.dom."""
    if g.cod != f.dom:
        raise CompositionError(
            f"cannot compose: first map ends at {g.cod}, "
            f"second starts at {f.dom}"
        )
    return FinMap._trusted(
        g.dom, f.cod, tuple([f.values[v - 1] for v in g.values])
    )


def is_order_preserving(f: FinMap) -> bool:
    return all(f.values[j] <= f.values[j + 1] for j in range(f.dom - 1))


def is_surjective(f: FinMap) -> bool:
    return len(set(f.values)) == f.cod


def is_bijective(f: FinMap) -> bool:
    return f.dom == f.cod and is_surjective(f)


def inverse(f: FinMap) -> FinMap:
    if not is_bijective(f):
        raise ShapeError(f"{f} is not a bijection")
    inv = [0] * f.dom
    for j, v in enumerate(f.values, 1):
        inv[v - 1] = j
    return FinMap._trusted(f.dom, f.dom, tuple(inv))


def fibre(f: FinMap, i: int) -> FinMap:
    """The fibre of f over i as its strictly increasing inclusion into
    f.dom; the fibre's cardinality is the inclusion's dom."""
    if not 1 <= i <= f.cod:
        raise IndexError(f"fibre index {i} outside 1..{f.cod}")
    positions = tuple(j for j, v in enumerate(f.values, 1) if v == i)
    return FinMap(len(positions), f.dom, positions)


def fibre_map(g: FinMap, f: FinMap, i: int) -> FinMap:
    """Restrict g to the fibres over i: a map (g;f)^{-1}(i) -> f^{-1}(i).

    Requires g.cod == f.dom. The defining property is that composing with
    the fibre inclusions recovers g:
        compose(fibre_map(g, f, i), fibre(f, i))
        == compose(fibre(compose(g, f), i), g).
    """
    if g.cod != f.dom:
        raise CompositionError(
            f"fibre_map needs g.cod == f.dom, got {g.cod} and {f.dom}"
        )
    if not 1 <= i <= f.cod:
        raise IndexError(f"fibre index {i} outside 1..{f.cod}")
    # rank[p] is the position of p inside the fibre of f over i, 0 outside
    # it; the points of g's domain landing in that fibre, in increasing
    # order, are exactly the fibre of g;f over i
    rank = [0] * (f.dom + 1)
    size = 0
    for p, v in enumerate(f.values, 1):
        if v == i:
            size += 1
            rank[p] = size
    values = tuple([r for r in map(rank.__getitem__, g.values) if r])
    return FinMap._trusted(len(values), size, values)


def pita(f: FinMap) -> tuple[FinMap, FinMap]:
    """Split f as an order-preserving map after a permutation.

    Returns (pi, eta) with pi a permutation of f.dom, eta order-preserving,
    and compose(pi, eta) == f. The permutation sorts positions stably by
    their value, which makes the pair unique: pi is the only permutation
    whose restriction to each fibre of f is increasing.
    """
    # sorted is stable, so this is the order of the key (value, j)
    values = f.values
    order = sorted(range(f.dom), key=values.__getitem__)
    pi_values = [0] * f.dom
    for r, j in enumerate(order, 1):
        pi_values[j] = r
    eta_values = tuple(map(values.__getitem__, order))
    return (
        FinMap._trusted(f.dom, f.dom, tuple(pi_values)),
        FinMap._trusted(f.dom, f.cod, eta_values),
    )


def ordinal_sum(f: FinMap, g: FinMap) -> FinMap:
    """Place f and g side by side on the disjoint union of ordinals."""
    shifted = tuple(v + f.cod for v in g.values)
    return FinMap(f.dom + g.dom, f.cod + g.cod, f.values + shifted)


def enumerate_maps(m: int, n: int):
    """All maps m -> n in value-table lexicographic order."""
    if m == 0:
        yield FinMap(0, n, ())
        return
    if n == 0:
        return
    for values in itertools.product(range(1, n + 1), repeat=m):
        yield FinMap(m, n, values)


def enumerate_surjections(m: int, n: int):
    """All surjections m -> n in value-table lexicographic order.

    Backtracking runs only over prefixes that still leave a choice: once
    a prefix hits every value its tails are all maps of the remaining
    positions, and once the tail is as long as the number of values
    still missing it is a permutation of them. The maps are valid by
    construction and built without the range check."""
    if n == 0:
        if m == 0:
            yield FinMap._trusted(0, 0, ())
        return
    if m < n:
        return
    values = []
    hit = [0] * (n + 1)
    full = range(1, n + 1)

    def blocks(missing: int):
        # (prefix, tails): each surjection below the prefix is the prefix
        # followed by one of the tails, in lexicographic order
        rest = m - len(values)
        if missing == 0:
            yield tuple(values), itertools.product(full, repeat=rest)
        elif missing == rest:
            unhit = [v for v in full if not hit[v]]
            yield tuple(values), itertools.permutations(unhit)
        else:
            for v in full:
                values.append(v)
                hit[v] += 1
                yield from blocks(missing - (hit[v] == 1))
                hit[v] -= 1
                values.pop()

    trusted = FinMap._trusted
    for prefix, tails in blocks(n):
        for tail in tails:
            yield trusted(m, n, prefix + tail)


def finmap_to_json(f: FinMap) -> dict:
    return {"dom": f.dom, "cod": f.cod, "values": list(f.values)}


def finmap_from_json(data: dict) -> FinMap:
    return FinMap(data["dom"], data["cod"], tuple(data["values"]))
