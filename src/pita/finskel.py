"""Skeletal finite sets and the permutation/order-preserving factorisation.

Objects are the finite ordinals 0, 1, 2, ... where the ordinal n stands for
the set {1, ..., n}. A map is a FinMap with explicit domain and codomain
cardinalities and a 1-based value table. Composition is written in
application order: compose(g, f) applies g first and f second, so it is
defined when g.cod == f.dom.

The central operation is pita(f), which splits any map into a permutation pi
followed by an order-preserving map eta, f = eta after pi, and this splitting
is unique. Fibres come with their canonical strictly increasing inclusion,
and fibre_map(g, f, i) restricts g to the fibres over i.
"""

from __future__ import annotations

import itertools

from .errors import CompositionError, ShapeError

# An object of the skeletal category is identified with its cardinality.
FinObj = int


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
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash((dom, cod, values)))

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


class Fibre:
    """A fibre together with its strictly increasing inclusion.

    epsilon is the FinMap sending the fibre's ordinal onto the positions of
    the fibre inside the domain, listed in increasing order; size is its
    cardinality.
    """

    __slots__ = ("size", "epsilon")

    def __init__(self, size: int, epsilon: FinMap):
        if epsilon.dom != size:
            raise ValueError("fibre size must match the inclusion's domain")
        if any(
            epsilon.values[t] >= epsilon.values[t + 1]
            for t in range(size - 1)
        ):
            raise ValueError("fibre inclusion must be strictly increasing")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "epsilon", epsilon)

    def __setattr__(self, name, value):
        raise AttributeError("Fibre is immutable")

    def __eq__(self, other):
        if not isinstance(other, Fibre):
            return NotImplemented
        return self.epsilon == other.epsilon

    def __hash__(self):
        return hash(self.epsilon)

    def __repr__(self):
        return f"Fibre({self.size}, {self.epsilon!r})"


def identity(n: int) -> FinMap:
    return FinMap(n, n, range(1, n + 1))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """Apply g first, then f. Requires g.cod == f.dom."""
    if g.cod != f.dom:
        raise CompositionError(
            f"cannot compose: first map ends at {g.cod}, "
            f"second starts at {f.dom}"
        )
    return FinMap(g.dom, f.cod, tuple(f.values[v - 1] for v in g.values))


def is_order_preserving(f: FinMap) -> bool:
    return all(f.values[j] <= f.values[j + 1] for j in range(f.dom - 1))


def is_surjective(f: FinMap) -> bool:
    return len(set(f.values)) == f.cod


def is_bijective(f: FinMap) -> bool:
    return f.dom == f.cod and is_surjective(f)


def is_identity(f: FinMap) -> bool:
    return f.dom == f.cod and f.values == tuple(range(1, f.dom + 1))


def inverse(f: FinMap) -> FinMap:
    if not is_bijective(f):
        raise ShapeError(f"{f} is not a bijection")
    inv = [0] * f.dom
    for j, v in enumerate(f.values, 1):
        inv[v - 1] = j
    return FinMap(f.dom, f.dom, inv)


def fibre(f: FinMap, i: int) -> Fibre:
    """The fibre of f over i with its increasing inclusion into f.dom."""
    if not 1 <= i <= f.cod:
        raise IndexError(f"fibre index {i} outside 1..{f.cod}")
    positions = tuple(j for j, v in enumerate(f.values, 1) if v == i)
    return Fibre(len(positions), FinMap(len(positions), f.dom, positions))


def fibre_map(g: FinMap, f: FinMap, i: int) -> FinMap:
    """Restrict g to the fibres over i: a map (g;f)^{-1}(i) -> f^{-1}(i).

    Requires g.cod == f.dom. The defining property is that composing with
    the fibre inclusions recovers g:
        compose(fibre_map(g, f, i), fibre(f, i).epsilon)
        == compose(fibre(compose(g, f), i).epsilon, g).
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
    values = [r for r in map(rank.__getitem__, g.values) if r]
    return FinMap(len(values), size, values)


def pita(f: FinMap) -> tuple[FinMap, FinMap]:
    """Split f as an order-preserving map after a permutation.

    Returns (pi, eta) with pi a permutation of f.dom, eta order-preserving,
    and compose(pi, eta) == f. The permutation sorts positions stably by
    their value, which makes the pair unique: pi is the only permutation
    whose restriction to each fibre of f is increasing.
    """
    order = sorted(range(1, f.dom + 1), key=lambda j: (f.values[j - 1], j))
    pi_values = [0] * f.dom
    for r, j in enumerate(order, 1):
        pi_values[j - 1] = r
    eta_values = tuple(f.values[j - 1] for j in order)
    return FinMap(f.dom, f.dom, pi_values), FinMap(f.dom, f.cod, eta_values)


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
    """All surjections m -> n, by backtracking with a feasibility prune."""
    if n == 0:
        if m == 0:
            yield FinMap(0, 0, ())
        return
    if m < n:
        return
    values = [0] * m
    hit = [0] * (n + 1)

    def build(pos: int, missing: int):
        if m - pos < missing:
            return
        if pos == m:
            yield FinMap(m, n, tuple(values))
            return
        for v in range(1, n + 1):
            values[pos] = v
            hit[v] += 1
            yield from build(pos + 1, missing - (hit[v] == 1))
            hit[v] -= 1

    yield from build(0, n)


def enumerate_bijections(n: int):
    for perm in itertools.permutations(range(1, n + 1)):
        yield FinMap(n, n, perm)


def finmap_to_json(f: FinMap) -> dict:
    return {"dom": f.dom, "cod": f.cod, "values": list(f.values)}


def finmap_from_json(data: dict) -> FinMap:
    return FinMap(data["dom"], data["cod"], tuple(data["values"]))
