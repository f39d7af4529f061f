"""Operadic-category instances as query interfaces, and the axiom verifier.

An instance exposes a small set of queries (objects up to a bound, homs,
composition, cardinality, chosen local terminals, fibres and fibre maps) and
verify_axioms checks the defining equations of an operadic category against
those answers by exhaustive enumeration below the bound. Violations are
collected into a Report with machine-readable witnesses instead of raising,
so a broken instance can be inspected.

Composition is diagrammatic throughout: compose(g, f) applies g first.
"""

from __future__ import annotations

import os
import weakref
from collections import Counter
from dataclasses import dataclass, field

from . import finskel
from .errors import IntegrityError, ShapeError
from .finskel import FinMap, finmap_to_json

# Above this many composable triples the iterated-fibre-map sweep switches
# to the vectorised table engine (only available for instances whose
# morphism handles are FinMaps).
_TRIPLE_LOOP_CUTOFF = 300_000


class OperadicInstance:
    """Query interface for a desk-scale operadic category.

    Object handles are natural numbers and morphism handles are FinMaps
    between the object cardinalities, so cardinality() is the identity on
    both. Subclasses fill in the object range and the hom filter.
    """

    name = "abstract"
    # True when morphism handles are FinMaps on the nose, which enables
    # the vectorised sweeps
    finmap_backed = True

    def objects(self, bound: int):
        raise NotImplementedError

    def hom(self, X: int, Y: int):
        raise NotImplementedError

    def compose(self, g: FinMap, f: FinMap) -> FinMap:
        return finskel.compose(g, f)

    def identity(self, X: int) -> FinMap:
        return finskel.identity(X)

    def cardinality(self, x):
        """Cardinality of an object (a natural) or of a morphism (a FinMap).
        Both are the identity here: handles are their own cardinalities."""
        return x

    def chosen_terminal(self, X: int):
        raise NotImplementedError

    def fibre(self, f: FinMap, i: int) -> int:
        return finskel.fibre(f, i).size

    def fibre_morphism(self, g: FinMap, f: FinMap, i: int) -> FinMap:
        return finskel.fibre_map(g, f, i)


# ---------------------------------------------------------------- reports


@dataclass
class Report:
    """Outcome of an enumeration sweep: a check count plus violations.

    by_axiom splits the check count by check site, each site keyed by the
    first tag it can report; it stays out of to_json so the JSON document
    is unchanged by it.
    """

    title: str
    checks: int = 0
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    max_violations: int = 50
    truncated: bool = False
    by_axiom: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    @property
    def full(self) -> bool:
        """True once the violation list has reached its cap."""
        return len(self.violations) >= self.max_violations

    def add(self, axiom: str, witness, lhs, rhs):
        if self.full:
            self.truncated = True
            return
        self.violations.append(
            {"axiom": axiom, "witness": witness, "lhs": lhs, "rhs": rhs}
        )

    def count(self, axiom: str, n: int = 1):
        """Record n checks made at the site keyed by axiom."""
        self.checks += n
        self.by_axiom[axiom] += n

    def skip(self, note: str):
        self.skipped.append(note)

    def merge(self, other: "Report"):
        self.checks += other.checks
        self.by_axiom.update(other.by_axiom)
        for v in other.violations:
            self.add(v["axiom"], v["witness"], v["lhs"], v["rhs"])
        self.truncated = self.truncated or other.truncated
        self.skipped.extend(other.skipped)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": self.checks,
            "violations": self.violations,
            "truncated": self.truncated,
            "skipped": self.skipped,
        }

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        extra = " (list truncated)" if self.truncated else ""
        return f"{self.title}: {self.checks} checks, {state}{extra}"


# ------------------------------------------------------------- predicates


def is_quasibijection(f: FinMap, inst: OperadicInstance | None = None) -> bool:
    """True when every fibre of f is a chosen local terminal. Without an
    instance this is the plain bijectivity test on the FinMap."""
    if inst is None:
        return finskel.is_bijective(f)
    card = inst.cardinality(f)
    for i in range(1, card.cod + 1):
        F = inst.fibre(f, i)
        if inst.chosen_terminal(F)[0] != F or inst.cardinality(F) != 1:
            return False
    return True


def is_op_morphism(f: FinMap, inst: OperadicInstance | None = None) -> bool:
    """True when the cardinality map of f is order-preserving."""
    card = f if inst is None else inst.cardinality(f)
    return finskel.is_order_preserving(card)


def is_fop_square(
    sigma: FinMap,
    tau: FinMap,
    f: FinMap,
    g: FinMap,
    inst: OperadicInstance | None = None,
) -> bool:
    """Fibrewise order-preservation of the commuting square

        . --sigma--> .
        |            |
        f            g
        |            |
        v            v
        . ---tau---> .

    The square must commute (compose(sigma, g) == compose(f, tau)), else
    ShapeError. It is fop when every fibre map of sigma over g is an op
    morphism.
    """
    comp = inst.compose if inst is not None else finskel.compose
    if sigma.dom != f.dom or sigma.cod != g.dom:
        raise ShapeError("top map does not match the verticals")
    if tau.dom != f.cod or tau.cod != g.cod:
        raise ShapeError("bottom map does not match the verticals")
    if comp(sigma, g) != comp(f, tau):
        raise ShapeError("square does not commute")
    fm = inst.fibre_morphism if inst is not None else finskel.fibre_map
    cod_card = g.cod if inst is None else inst.cardinality(g).cod
    return all(
        is_op_morphism(fm(sigma, g, i), inst) for i in range(1, cod_card + 1)
    )


def quasibijections(inst: OperadicInstance, X: int, Y: int):
    return [q for q in inst.hom(X, Y) if is_quasibijection(q, inst)]


# ------------------------------------------------------------ the verifier


def equivalence_classes(items: list, related) -> list[list]:
    """Classes of the equivalence relation generated by related(a, b).

    related is asked once for each pair with a listed before b, and only
    while a and b are not yet known to be equivalent, so an expensive
    relation is consulted as little as possible. Classes come out in
    order of their first member, members in list order.
    """
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if find(i) != find(j) and related(items[i], items[j]):
                parent[find(i)] = find(j)
    classes: dict[int, list] = {}
    for i, item in enumerate(items):
        classes.setdefault(find(i), []).append(item)
    return list(classes.values())


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get("PITA_THREADS", "1")))
    except ValueError:
        return 1


class Universe:
    """Every morphism of an instance below a bound, interned once.

    Morphisms get integer ids in hom order (objects X, then Y, then the
    order of inst.hom). The instance's answers about them are asked once,
    through the instance methods, and kept as id lists: composites of the
    composable pairs, fibres, fibre sizes and fibre maps. Next to them sits
    the raw reference side that the axioms compare against: finskel
    composites, fibre sizes, inclusions and fibre maps of the cardinality
    maps. Cardinality maps have their own ids (cards), since they need not
    be morphisms. An answer outside the instance's homs gets id -1.

    Layout: pair p is (pair_first[p], pair_second[p]), the first applied
    first, with pair_index[a * n + b] == p and -1 where a, b do not
    compose; pairs run through a in id order, then b in id order. The
    fibre maps of pair p over i = 1, 2, ... sit at p * bound + i - 1,
    padded with -1 (no object below the bound has more than bound points).
    """

    def __init__(self, inst: OperadicInstance, bound: int):
        self.bound = bound
        self.finmap_backed = inst.finmap_backed
        self.objects = objs = list(inst.objects(bound))
        maps: list = []
        self.homs: dict = {}
        for X in objs:
            for Y in objs:
                start = len(maps)
                maps.extend(inst.hom(X, Y))
                self.homs[(X, Y)] = range(start, len(maps))
        self.maps = maps
        self.n = n = len(maps)
        self.index = index = {f: k for k, f in enumerate(maps)}
        self.into = {
            Y: [k for X in objs for k in self.homs[(X, Y)]] for Y in objs
        }
        self.identities = {
            X: index.get(inst.identity(X), -1) for X in objs
        }

        self.cards: list = []
        self._card_ids: dict = {}
        self.card_of = [self._card(inst.cardinality(f)) for f in maps]
        cards = self.cards
        self.inclusions = []
        self.fibres = []
        self.fibre_sizes = []
        for f, c in zip(maps, self.card_of):
            points = range(1, cards[c].cod + 1)
            self.inclusions.append(tuple(
                finskel.fibre(cards[c], i).epsilon.values for i in points
            ))
            fibres = tuple(inst.fibre(f, i) for i in points)
            self.fibres.append(fibres)
            self.fibre_sizes.append(tuple(inst.cardinality(F) for F in fibres))

        self.pair_index = pair_index = [-1] * (n * n)
        first: list = []
        second: list = []
        for (T, S), gs in self.homs.items():
            after = [b for R in objs for b in self.homs[(S, R)]]
            for a in gs:
                for b in after:
                    pair_index[a * n + b] = len(first)
                    first.append(a)
                    second.append(b)
        self.pair_first, self.pair_second = first, second

        w = bound
        card, compose = self._card, finskel.compose
        self.composites = []
        self.raw_composites = []
        self.fibre_maps = fms = [-1] * (len(first) * w)
        self.raw_fibre_maps = raw_fms = [-1] * (len(first) * w)
        self.strays = 0
        for p, (a, b) in enumerate(zip(first, second)):
            g, f = maps[a], maps[b]
            cg, cf = cards[self.card_of[a]], cards[self.card_of[b]]
            c = index.get(inst.compose(g, f), -1)
            self.composites.append(c)
            self.raw_composites.append(card(compose(cg, cf)))
            self.strays += c < 0
            for i in range(1, cf.cod + 1):
                k = index.get(inst.fibre_morphism(g, f, i), -1)
                fms[p * w + i - 1] = k
                raw_fms[p * w + i - 1] = card(finskel.fibre_map(cg, cf, i))
                self.strays += k < 0
        self._splits = None
        self._table = None

    def _card(self, f: FinMap) -> int:
        k = self._card_ids.get(f)
        if k is None:
            k = self._card_ids[f] = len(self.cards)
            self.cards.append(f)
        return k

    def sweep_pairs(self):
        """(T, g, f, p) for every composable pair p = (g, f) with g out of
        T: through the homs (T, S) in order, then the codomains R of f,
        then g, then f."""
        n = self.n
        for (T, S), gs in self.homs.items():
            for R in self.objects:
                fs = self.homs[(S, R)]
                for g in gs:
                    for f in fs:
                        yield T, g, f, self.pair_index[g * n + f]

    @property
    def triples(self) -> int:
        """The number of composable triples of morphisms."""
        out = {
            S: sum(len(self.homs[(S, R)]) for R in self.objects)
            for S in self.objects
        }
        return sum(
            len(self.into[T]) * len(gs) * out[S]
            for (T, S), gs in self.homs.items()
        )

    def splits(self) -> tuple[list, list, list]:
        """Ids of pi and eta of every cardinality map, and of the inverse
        of every bijective morphism (-1 for the others), computed on
        first use. IntegrityError when one of them is not a morphism."""
        if self._splits is None:
            pis, etas, inverses = [], [], []
            for f, c in zip(self.maps, self.card_of):
                pi, eta = finskel.pita(self.cards[c])
                inv = finskel.inverse(f) if finskel.is_bijective(f) else None
                pis.append(self._member(pi))
                etas.append(self._member(eta))
                inverses.append(-1 if inv is None else self._member(inv))
            self._splits = pis, etas, inverses
        return self._splits

    def _member(self, f) -> int:
        k = self.index.get(f)
        if k is None:
            raise IntegrityError(
                f"instance produced a morphism outside its own homs: {f}"
            )
        return k

    def table(self):
        """The numpy view of this universe (see _tables), built once."""
        if self._table is None:
            from ._tables import MapTable

            self._table = MapTable(self)
        return self._table


# Universes by instance object, then bound. Weak keys let an instance and
# its universes go together; a universe holds no reference back to its
# instance. Keyed here rather than cached on the instance, so a wrapper
# that delegates attribute lookups to another instance never sees that
# instance's universe.
_UNIVERSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def universe(inst: OperadicInstance, bound: int) -> Universe:
    """The interned universe of inst below the bound, built on first use."""
    by_bound = _UNIVERSES.setdefault(inst, {})
    if bound not in by_bound:
        by_bound[bound] = Universe(inst, bound)
    return by_bound[bound]


def verify_axioms(
    inst: OperadicInstance,
    bound: int,
    threads: int | None = None,
    max_violations: int = 50,
) -> Report:
    """Check the operadic-category axioms on all data below the bound.

    Runs, in order: cardinality and idempotence of chosen local terminals
    plus their terminality inside each connected component; fibres of
    identities; compatibility of fibre sizes and fibre maps with the
    cardinality functor; recovery of objects and morphisms from the fibres
    of the chosen terminal maps; fibres of fibre maps; and the iterated
    fibre-map equation over all composable triples. The pair and triple
    sweeps read the instance's answers from its universe; the triple
    sweep, the expensive one, switches to a vectorised engine on large
    universes.
    """
    if threads is None:
        threads = default_threads()
    rep = Report(
        f"axioms[{inst.name}, bound={bound}]", max_violations=max_violations
    )
    u = universe(inst, bound)
    objs, maps, homs = u.objects, u.maps, u.homs
    # connected components of the zigzag relation induced by nonempty homs
    components = equivalence_classes(
        objs, lambda X, Y: bool(homs[(X, Y)] or homs[(Y, X)])
    )
    comp_of = {X: k for k, members in enumerate(components) for X in members}

    # chosen local terminals
    for X in objs:
        U, tau = inst.chosen_terminal(X)
        rep.count("terminal-cardinality")
        if inst.cardinality(U) != 1:
            rep.add(
                "terminal-cardinality", {"object": X, "terminal": U},
                inst.cardinality(U), 1,
            )
        if u.index.get(tau, -1) not in homs.get((X, U), ()):
            rep.add(
                "terminal-map-missing",
                {"object": X, "map": finmap_to_json(tau)},
                "not a morphism", f"hom({X}, {U})",
            )
        U2, tau2 = inst.chosen_terminal(U)
        if U2 != U or tau2 != inst.identity(U):
            rep.add(
                "terminal-idempotence", {"object": X, "terminal": U},
                {"object": U2, "map": finmap_to_json(tau2)},
                {"object": U, "map": finmap_to_json(inst.identity(U))},
            )
        if U in comp_of and comp_of.get(X) != comp_of.get(U):
            rep.add(
                "terminal-outside-component", {"object": X}, U, "same component"
            )
        for Y in objs:
            if comp_of.get(Y) != comp_of.get(U):
                continue
            rep.count("terminal-not-terminal")
            n = len(homs[(Y, U)])
            if n != 1:
                rep.add(
                    "terminal-not-terminal",
                    {"object": X, "terminal": U, "probe": Y},
                    n, 1,
                )

    # fibres of identities are chosen terminals
    for X in objs:
        idX = inst.identity(X)
        for i in range(1, inst.cardinality(X) + 1):
            F = inst.fibre(idX, i)
            rep.count("identity-fibre-not-terminal")
            if inst.cardinality(F) != 1 or inst.chosen_terminal(F)[0] != F:
                rep.add(
                    "identity-fibre-not-terminal",
                    {"object": X, "i": i},
                    F, "a chosen local terminal",
                )

    # fibres of the chosen terminal maps recover objects and morphisms
    for X in objs:
        U, tau = inst.chosen_terminal(X)
        rep.count("terminal-fibre-object")
        if inst.fibre(tau, 1) != X:
            rep.add(
                "terminal-fibre-object", {"object": X}, inst.fibre(tau, 1), X
            )
    for (X, Y), ids in homs.items():
        U, tauY = inst.chosen_terminal(Y)
        for k in ids:
            f = maps[k]
            rep.count("terminal-fibre-morphism")
            back = inst.fibre_morphism(f, tauY, 1)
            if back != f:
                rep.add(
                    "terminal-fibre-morphism", {"f": finmap_to_json(f)},
                    finmap_to_json(back), finmap_to_json(f),
                )

    # pair sweep: cardinality compatibility and fibres of fibre maps
    n, w = u.n, u.bound
    pair_index, card_of = u.pair_index, u.card_of
    fms, raw_fms = u.fibre_maps, u.raw_fibre_maps
    fibres, sizes, inclusions = u.fibres, u.fibre_sizes, u.inclusions

    def json_of(k):
        return finmap_to_json(maps[k]) if k >= 0 else None

    def card_json(k):
        """The cardinality map of morphism k, which may be outside."""
        return finmap_to_json(u.cards[card_of[k]]) if k >= 0 else (
            "not a morphism"
        )

    size_checks = fibre_checks = 0
    for T, g, f, p in u.sweep_pairs():
        c, expected = u.composites[p], u.raw_composites[p]
        if c < 0 or card_of[c] != expected:
            rep.add(
                "cardinality-not-functorial",
                {"g": json_of(g), "f": json_of(f)},
                card_json(c), finmap_to_json(u.cards[expected]),
            )
        size_checks += len(inclusions[f])
        for i, eps in enumerate(inclusions[f]):
            if sizes[f][i] != len(eps):
                rep.add(
                    "cardinality-fibre-size", {"f": json_of(f), "i": i + 1},
                    sizes[f][i], len(eps),
                )
            fm, expected = fms[p * w + i], raw_fms[p * w + i]
            if fm < 0 or card_of[fm] != expected:
                rep.add(
                    "fibre-map-cardinality",
                    {"g": json_of(g), "f": json_of(f), "i": i + 1},
                    card_json(fm), finmap_to_json(u.cards[expected]),
                )
                continue
            # fibres of the fibre map match fibres of g along the inclusion
            fibre_checks += len(eps)
            for j, e in enumerate(eps):
                if fibres[fm][j] != fibres[g][e - 1]:
                    rep.add(
                        "fibre-of-fibre-map",
                        {
                            "g": json_of(g), "f": json_of(f),
                            "i": i + 1, "j": j + 1,
                        },
                        fibres[fm][j], fibres[g][e - 1],
                    )
    rep.count("cardinality-fibre-size", size_checks)
    rep.count("fibre-of-fibre-map", fibre_checks)

    # iterated fibre maps over composable triples: with pairs (h, g) and
    # (g, f), the fibre map of [h over g;f at i] over [g over f at i] at j
    # equals the fibre map of h over g at epsilon(j)
    if inst.finmap_backed and u.triples > _TRIPLE_LOOP_CUTOFF:
        u.table().sweep_iterated_fibre_maps(rep, threads=threads)
        return rep

    def pair(a, b):
        return pair_index[a * n + b] if a >= 0 and b >= 0 else -1

    def fibre_map(q, i):
        return fms[q * w + i] if q >= 0 else -1

    checks = 0
    for T, g, f, p in u.sweep_pairs():
        hs, gf = u.into[T], u.composites[p]
        for i, eps in enumerate(inclusions[f]):
            checks += len(hs) * len(eps)
            for h in hs:
                # the pair (h over g;f at i, g over f at i)
                AB = pair(fibre_map(pair(h, gf), i), fms[p * w + i])
                hg = pair_index[h * n + g]
                for j, e in enumerate(eps):
                    lhs, rhs = fibre_map(AB, j), fms[hg * w + e - 1]
                    if lhs != rhs:
                        rep.add(
                            "iterated-fibre-map",
                            {
                                "h": json_of(h), "g": json_of(g),
                                "f": json_of(f), "i": i + 1, "j": j + 1,
                            },
                            json_of(lhs), json_of(rhs),
                        )
    rep.count("iterated-fibre-map", checks)
    return rep
