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
from dataclasses import dataclass, field

from . import finskel
from .errors import ShapeError
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
    """Outcome of an enumeration sweep: a check count plus violations."""

    title: str
    checks: int = 0
    violations: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    max_violations: int = 50
    truncated: bool = False

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

    def skip(self, note: str):
        self.skipped.append(note)

    def merge(self, other: "Report"):
        self.checks += other.checks
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
    fibre-map equation over all composable triples. The last sweep is the
    expensive one and switches to a vectorised engine on large universes.
    """
    if threads is None:
        threads = default_threads()
    rep = Report(
        f"axioms[{inst.name}, bound={bound}]", max_violations=max_violations
    )
    objs = list(inst.objects(bound))
    homs = {(X, Y): list(inst.hom(X, Y)) for X in objs for Y in objs}
    # connected components of the zigzag relation induced by nonempty homs
    components = equivalence_classes(
        objs, lambda X, Y: bool(homs[(X, Y)] or homs[(Y, X)])
    )
    comp_of = {X: k for k, members in enumerate(components) for X in members}

    # chosen local terminals
    for X in objs:
        U, tau = inst.chosen_terminal(X)
        rep.checks += 1
        if inst.cardinality(U) != 1:
            rep.add(
                "terminal-cardinality", {"object": X, "terminal": U},
                inst.cardinality(U), 1,
            )
        if tau not in homs.get((X, U), []):
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
            rep.checks += 1
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
            rep.checks += 1
            if inst.cardinality(F) != 1 or inst.chosen_terminal(F)[0] != F:
                rep.add(
                    "identity-fibre-not-terminal",
                    {"object": X, "i": i},
                    F, "a chosen local terminal",
                )

    # fibres of the chosen terminal maps recover objects and morphisms
    for X in objs:
        U, tau = inst.chosen_terminal(X)
        rep.checks += 1
        if inst.fibre(tau, 1) != X:
            rep.add(
                "terminal-fibre-object", {"object": X}, inst.fibre(tau, 1), X
            )
    for (X, Y), fs in homs.items():
        U, tauY = inst.chosen_terminal(Y)
        for f in fs:
            rep.checks += 1
            back = inst.fibre_morphism(f, tauY, 1)
            if back != f:
                rep.add(
                    "terminal-fibre-morphism", {"f": finmap_to_json(f)},
                    finmap_to_json(back), finmap_to_json(f),
                )

    # pair sweep: cardinality compatibility and fibres of fibre maps,
    # caching everything the triple sweep needs
    compose_cache: dict = {}
    fm_cache: dict = {}
    pairs = []
    for (T, S), gs in homs.items():
        for R in objs:
            fs = homs[(S, R)]
            if not fs:
                continue
            for g in gs:
                for f in fs:
                    pairs.append((g, f))
    for g, f in pairs:
        gf = inst.compose(g, f)
        compose_cache[(g, f)] = gf
        card_f = inst.cardinality(f)
        card_g = inst.cardinality(g)
        card_gf = finskel.compose(card_g, card_f)
        if inst.cardinality(gf) != card_gf:
            rep.add(
                "cardinality-not-functorial",
                {"g": finmap_to_json(g), "f": finmap_to_json(f)},
                finmap_to_json(inst.cardinality(gf)), finmap_to_json(card_gf),
            )
        for i in range(1, card_f.cod + 1):
            rep.checks += 1
            size = finskel.fibre(card_f, i).size
            F = inst.fibre(f, i)
            if inst.cardinality(F) != size:
                rep.add(
                    "cardinality-fibre-size", {"f": finmap_to_json(f), "i": i},
                    inst.cardinality(F), size,
                )
            fm = inst.fibre_morphism(g, f, i)
            fm_cache[(g, f, i)] = fm
            expected = finskel.fibre_map(card_g, card_f, i)
            if inst.cardinality(fm) != expected:
                rep.add(
                    "fibre-map-cardinality",
                    {"g": finmap_to_json(g), "f": finmap_to_json(f), "i": i},
                    finmap_to_json(inst.cardinality(fm)), finmap_to_json(expected),
                )
                continue
            # fibres of the fibre map match fibres of g along the inclusion
            eps = finskel.fibre(card_f, i).epsilon
            for j in range(1, expected.cod + 1):
                rep.checks += 1
                lhs = inst.fibre(fm, j)
                rhs = inst.fibre(g, eps(j))
                if lhs != rhs:
                    rep.add(
                        "fibre-of-fibre-map",
                        {
                            "g": finmap_to_json(g), "f": finmap_to_json(f),
                            "i": i, "j": j,
                        },
                        lhs, rhs,
                    )

    # iterated fibre maps over composable triples
    by_cod: dict = {}
    for (X, Y), fs in homs.items():
        by_cod.setdefault(Y, []).extend(fs)
    triple_count = sum(
        len(by_cod.get(g.dom, [])) for g, f in pairs
    )
    use_tables = inst.finmap_backed and triple_count > _TRIPLE_LOOP_CUTOFF
    if use_tables:
        from . import _tables

        table = _tables.MapTable(
            inst, bound, compose_cache=compose_cache, fm_cache=fm_cache
        )
        table.sweep_iterated_fibre_maps(rep, threads=threads)
    else:
        for g, f in pairs:
            gf = compose_cache[(g, f)]
            card_f = inst.cardinality(f)
            hs = by_cod.get(g.dom, [])
            for i in range(1, card_f.cod + 1):
                B = fm_cache[(g, f, i)]
                eps = finskel.fibre(card_f, i).epsilon
                for h in hs:
                    A = inst.fibre_morphism(h, gf, i)
                    for j in range(1, inst.cardinality(B).cod + 1):
                        rep.checks += 1
                        lhs = inst.fibre_morphism(A, B, j)
                        rhs = inst.fibre_morphism(h, g, eps(j))
                        if lhs != rhs:
                            rep.add(
                                "iterated-fibre-map",
                                {
                                    "h": finmap_to_json(h),
                                    "g": finmap_to_json(g),
                                    "f": finmap_to_json(f),
                                    "i": i, "j": j,
                                },
                                finmap_to_json(lhs), finmap_to_json(rhs),
                            )
    return rep
